package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
)

// Histogram is a fixed-footprint log2-bucketed latency histogram: bucket i
// counts observations whose bit length is i (bucket 0 holds zeros), so the
// bucket for value v spans [2^(i-1), 2^i). Sixty-five buckets cover the full
// uint64 range with no per-observation allocation, which keeps per-kernel
// duration and sync-stall recording off the simulator's allocation profile.
// Methods on a nil *Histogram are no-ops, like Sheet.
type Histogram struct {
	name    string
	buckets [65]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram labeled name.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Name returns the histogram's label.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (zero when empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the bucket holding the q*count-th observation. Exact to
// within the 2x bucket width.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count-1))
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > target {
			if i == 0 {
				return 0
			}
			hi := uint64(1)<<uint(i) - 1
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Bucket is one cumulative histogram bucket: Count observations had values
// less than or equal to UpperBound. The exposition layer (internal/metrics)
// turns these into Prometheus `_bucket{le="..."}` lines, whose counts are
// cumulative by definition.
type Bucket struct {
	UpperBound uint64
	Count      uint64
}

// CumulativeBuckets returns the histogram's buckets in cumulative form,
// truncated after the bucket that reaches the total count (so an empty or
// nil histogram returns nil, and the last returned bucket always has
// Count == Count()). Bucket i's upper bound is the largest value with bit
// length i: 0, 1, 3, 7, ..., 2^i - 1.
func (h *Histogram) CumulativeBuckets() []Bucket {
	if h == nil || h.count == 0 {
		return nil
	}
	out := make([]Bucket, 0, 8)
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		ub := uint64(0)
		if i > 0 {
			ub = 1<<uint(i) - 1
		}
		out = append(out, Bucket{UpperBound: ub, Count: cum})
		if cum == h.count {
			break
		}
	}
	return out
}

// histogramJSON is the wire form of a Histogram: the scalar summary plus
// the nonzero buckets as [index, count] pairs in ascending index order, so
// marshaling is deterministic and sparse histograms stay compact.
type histogramJSON struct {
	Name    string      `json:"name,omitempty"`
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Min     uint64      `json:"min"`
	Max     uint64      `json:"max"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON renders the histogram losslessly, so Reports survive the
// server's persistent result store (internal/diskstore) and HTTP
// serving with their latency distributions intact. Output is deterministic:
// buckets are emitted in ascending index order.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	if h == nil {
		return []byte("null"), nil
	}
	wire := histogramJSON{Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n != 0 {
			wire.Buckets = append(wire.Buckets, [2]uint64{uint64(i), n})
		}
	}
	return json.Marshal(wire)
}

// UnmarshalJSON restores a histogram marshaled by MarshalJSON. Legacy
// artifacts serialized before histograms had a wire form decode as empty
// histograms, and out-of-range bucket indexes are an error rather than a
// truncation.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var wire histogramJSON
	if err := json.Unmarshal(b, &wire); err != nil {
		return err
	}
	*h = Histogram{name: wire.Name, count: wire.Count, sum: wire.Sum, min: wire.Min, max: wire.Max}
	for _, bk := range wire.Buckets {
		if bk[0] >= uint64(len(h.buckets)) {
			return fmt.Errorf("stats: histogram bucket index %d out of range", bk[0])
		}
		h.buckets[bk[0]] = bk[1]
	}
	return nil
}

// String renders the nonzero buckets as an aligned table with a bar chart.
func (h *Histogram) String() string {
	if h == nil || h.count == 0 {
		return fmt.Sprintf("%s: empty\n", h.Name())
	}
	var peak uint64
	for _, n := range h.buckets {
		if n > peak {
			peak = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d min=%d mean=%.0f p50=%d p99=%d max=%d\n",
		h.name, h.count, h.min, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(0)
		if i > 0 {
			lo = 1 << uint(i-1)
			hi = uint64(1)<<uint(i) - 1
		}
		bar := strings.Repeat("#", int(1+n*39/peak))
		fmt.Fprintf(&b, "  [%12d, %12d] %10d %s\n", lo, hi, n, bar)
	}
	return b.String()
}

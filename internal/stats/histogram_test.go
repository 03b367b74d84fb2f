package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" {
		t.Error("nil histogram returned nonzero state")
	}
	if !strings.Contains(h.String(), "empty") {
		t.Errorf("nil String = %q", h.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("min=%d max=%d", h.Min(), h.Max())
	}
	if h.Mean() != 1106.0/6 {
		t.Errorf("mean=%f", h.Mean())
	}
	if h.Name() != "lat" {
		t.Errorf("name=%q", h.Name())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q")
	for i := 0; i < 100; i++ {
		h.Observe(10) // all in bucket [8,15]
	}
	h.Observe(1 << 20)
	// p50 lands in the dense bucket: upper edge 15.
	if q := h.Quantile(0.5); q != 15 {
		t.Errorf("p50 = %d, want 15", q)
	}
	// p100 is the single large outlier, clamped to the observed max.
	if q := h.Quantile(1); q != 1<<20 {
		t.Errorf("p100 = %d, want %d", q, 1<<20)
	}
	// Out-of-range q values clamp rather than panic.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping wrong")
	}
	// All-zero observations stay zero.
	z := NewHistogram("z")
	z.Observe(0)
	if z.Quantile(0.99) != 0 {
		t.Error("zero-only quantile nonzero")
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is zero.
	e := NewHistogram("empty")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := e.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	// Single sample: every quantile is that sample's bucket, clamped to max.
	s := NewHistogram("single")
	s.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if v := s.Quantile(q); v != 42 {
			t.Errorf("single-sample Quantile(%v) = %d, want 42", q, v)
		}
	}
	// Quantile never exceeds the observed max even mid-bucket.
	m := NewHistogram("max")
	m.Observe(9) // bucket [8,15], upper edge 15 > max 9
	if v := m.Quantile(1); v != 9 {
		t.Errorf("Quantile(1) = %d, want clamp to max 9", v)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	// Nil and empty histograms have no buckets.
	var nilH *Histogram
	if b := nilH.CumulativeBuckets(); b != nil {
		t.Errorf("nil CumulativeBuckets = %v, want nil", b)
	}
	if b := NewHistogram("e").CumulativeBuckets(); b != nil {
		t.Errorf("empty CumulativeBuckets = %v, want nil", b)
	}

	h := NewHistogram("c")
	h.Observe(0)  // bucket 0, le 0
	h.Observe(1)  // bucket 1, le 1
	h.Observe(2)  // bucket 2, le 3
	h.Observe(3)  // bucket 2, le 3
	h.Observe(10) // bucket 4, le 15
	got := h.CumulativeBuckets()
	want := []Bucket{
		{UpperBound: 0, Count: 1},
		{UpperBound: 1, Count: 2},
		{UpperBound: 3, Count: 4},
		{UpperBound: 7, Count: 4},
		{UpperBound: 15, Count: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Counts are monotone and the last equals the total count.
	for i := 1; i < len(got); i++ {
		if got[i].Count < got[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d: %v", i, got)
		}
	}
	if got[len(got)-1].Count != h.Count() {
		t.Errorf("last bucket count %d != total %d", got[len(got)-1].Count, h.Count())
	}
	// A single zero-valued observation yields exactly one le=0 bucket.
	z := NewHistogram("z")
	z.Observe(0)
	if b := z.CumulativeBuckets(); len(b) != 1 || b[0] != (Bucket{0, 1}) {
		t.Errorf("zero-only buckets = %v", b)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram("dur")
	h.Observe(4)
	h.Observe(5)
	h.Observe(900)
	out := h.String()
	if !strings.Contains(out, "dur:") || !strings.Contains(out, "n=3") {
		t.Errorf("summary line wrong: %q", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("missing bar chart: %q", out)
	}
}

// TestHistogramJSONRoundTrip: a histogram must survive marshal/unmarshal
// losslessly and re-marshal to identical bytes — the property the server's
// persistent result store relies on to serve byte-identical reports.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram("kernel duration (cycles)")
	for _, v := range []uint64{0, 1, 2, 3, 900, 1 << 40, 1<<63 + 5} {
		h.Observe(v)
	}
	first, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() ||
		back.Min() != h.Min() || back.Max() != h.Max() ||
		back.Name() != h.Name() || back.Quantile(0.99) != h.Quantile(0.99) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, *h)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshal differs:\n%s\n%s", first, second)
	}

	var nilH *Histogram
	if b, err := json.Marshal(nilH); err != nil || string(b) != "null" {
		t.Fatalf("nil histogram marshaled to %q (%v)", b, err)
	}
	// Legacy artifacts serialized histograms as {} before the wire form
	// existed; they must decode as empty.
	var legacy Histogram
	if err := json.Unmarshal([]byte("{}"), &legacy); err != nil || legacy.Count() != 0 {
		t.Fatalf("legacy {} decode: %v count=%d", err, legacy.Count())
	}
	var bad Histogram
	if err := json.Unmarshal([]byte(`{"buckets":[[99,1]]}`), &bad); err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

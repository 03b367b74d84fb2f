package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refSheet is the reference model of Sheet's visible state: a value per
// counter and an explicit touched set, with every writer touching exactly
// where the pre-bitset map sheet created a key.
type refSheet struct {
	v       [numCounters]uint64
	touched map[Counter]bool
}

func newRefSheet() *refSheet { return &refSheet{touched: map[Counter]bool{}} }

func (r *refSheet) add(c Counter, n uint64) { r.v[c] += n; r.touched[c] = true }
func (r *refSheet) set(c Counter, n uint64) { r.v[c] = n; r.touched[c] = true }

func (r *refSheet) max(c Counter, n uint64) {
	if r.v[c] < n {
		r.v[c] = n
		r.touched[c] = true
	}
}

func (r *refSheet) merge(o *refSheet) {
	for c := range o.touched {
		if maxSemantics[c] {
			r.max(c, o.v[c])
		} else {
			r.v[c] += o.v[c]
		}
		r.touched[c] = true
	}
}

func (r *refSheet) deltaFrom(prev *refSheet) *refSheet {
	d := newRefSheet()
	for c := range r.touched {
		n := r.v[c]
		if !maxSemantics[c] {
			n -= prev.v[c]
		}
		if n != 0 {
			d.set(c, n)
		}
	}
	return d
}

func (r *refSheet) clone() *refSheet {
	d := newRefSheet()
	d.v = r.v
	for c := range r.touched {
		d.touched[c] = true
	}
	return d
}

func (r *refSheet) marshal() []byte {
	m := map[string]uint64{}
	for c := range r.touched {
		m[counterNames[c]] = r.v[c]
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

func (r *refSheet) counters() []string {
	var out []string
	for c := range r.touched {
		out = append(out, counterNames[c])
	}
	sort.Strings(out)
	return out
}

func names(cs []Counter) []string {
	var out []string
	for _, c := range cs {
		out = append(out, counterNames[c])
	}
	return out
}

// TestTouchedMatchesReference drives Sheets and the explicit-touched
// reference through the same random stream — Add (n = 0 included, and adds
// that wrap a counter to zero), Set to zero and nonzero, Max with and without
// a raise, Merge, DeltaFrom, Clone and a JSON round trip — and requires
// byte-identical MarshalJSON and the same Counters after every step. Add
// sets the touched bit only when it leaves a counter at zero, so the test
// pins that a nonzero counter reads as touched everywhere.
func TestTouchedMatchesReference(t *testing.T) {
	// Additive and peak counters, at both ends of the counter array.
	pool := []Counter{L1Hits, L2Misses, DRAMReads, TablePeakUse, TableCoarsening, TotalCycles, StaleReads}
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		sheets := [2]*Sheet{New(), New()}
		refs := [2]*refSheet{newRefSheet(), newRefSheet()}
		for op := 0; op < 60; op++ {
			i := rnd.Intn(2)
			s, r := sheets[i], refs[i]
			c := pool[rnd.Intn(len(pool))]
			var what string
			switch rnd.Intn(10) {
			case 0, 1:
				n := uint64(rnd.Intn(3))
				what = fmt.Sprintf("Add(%v, %d)", c, n)
				s.Add(c, n)
				r.add(c, n)
			case 2:
				n := -r.v[c] // wraps to zero
				what = fmt.Sprintf("Add(%v, %d)", c, n)
				s.Add(c, n)
				r.add(c, n)
			case 3:
				n := uint64(rnd.Intn(2) * rnd.Intn(5))
				what = fmt.Sprintf("Set(%v, %d)", c, n)
				s.Set(c, n)
				r.set(c, n)
			case 4:
				n := r.v[c] + uint64(rnd.Intn(3)) - 1 // below, at or above
				what = fmt.Sprintf("Max(%v, %d)", c, n)
				s.Max(c, n)
				r.max(c, n)
			case 5:
				what = "Merge"
				s.Merge(sheets[1-i])
				r.merge(refs[1-i])
			case 6:
				what = "DeltaFrom"
				sheets[i] = s.DeltaFrom(sheets[1-i])
				refs[i] = r.deltaFrom(refs[1-i])
			case 7:
				what = "Clone"
				sheets[1-i] = s.Clone()
				refs[1-i] = r.clone()
			case 8:
				what = "JSON round trip"
				b, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				back := New()
				if err := json.Unmarshal(b, back); err != nil {
					t.Fatal(err)
				}
				sheets[i] = back
			case 9:
				what = "Inc"
				s.Inc(c)
				r.add(c, 1)
			}
			for k := range sheets {
				got, err := sheets[k].MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if want := refs[k].marshal(); !bytes.Equal(got, want) {
					t.Fatalf("trial %d op %d after %s: sheet %d marshals %s, reference %s", trial, op, what, k, got, want)
				}
				if got, want := fmt.Sprint(names(sheets[k].Counters())), fmt.Sprint(refs[k].counters()); got != want {
					t.Fatalf("trial %d op %d after %s: sheet %d Counters %s, reference %s", trial, op, what, k, got, want)
				}
			}
		}
	}
}

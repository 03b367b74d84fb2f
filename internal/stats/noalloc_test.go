package stats

import "testing"

// The dense counter array is the per-access instrumentation path: its
// operations must never allocate.
//
// Each test counts every allocation over 200 rounds, as one AllocsPerRun run
// of a 200-round loop: AllocsPerRun divides by its run count in integers, so
// 200 runs would forgive up to 199 allocations and hide the amortized growth
// of a slice that a hot path keeps appending to.

func TestCounterOpsNoAllocs(t *testing.T) {
	s := New()
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			s.Inc(L1Hits)
			s.Add(L1Hits, 41)
			s.Max(L1Hits, 7)
			s.Set(L1Hits, 3)
			if s.Get(L1Hits) != 3 {
				t.Fatal("counter value wrong")
			}
			if !s.isTouched(L1Hits) {
				t.Fatal("touch lost")
			}
			_ = IsMax(L1Hits)
		}
	})
	if allocs != 0 {
		t.Errorf("counter ops: %v allocs in 200 rounds, want 0", allocs)
	}
}

func TestNilSheetOpsNoAllocs(t *testing.T) {
	var s *Sheet
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			s.Inc(L1Hits)
			s.Add(L1Hits, 1)
			s.Max(L1Hits, 1)
			s.Set(L1Hits, 1)
			if s.Get(L1Hits) != 0 {
				t.Fatal("nil sheet returned a value")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("nil-sheet ops: %v allocs in 200 rounds, want 0", allocs)
	}
}

package event

import "testing"

// TestEngineOnDeliver checks that Advance moves the clock and calls
// OnDeliver with the new time, the hook the trace recorder clocks from.
func TestEngineOnDeliver(t *testing.T) {
	var e Engine
	e.Advance(3) // no hook set: Advance must not call a nil OnDeliver
	var clocks []Time
	e.OnDeliver = func(now Time) {
		if e.Now() != now {
			t.Errorf("OnDeliver saw %d, clock is %d", now, e.Now())
		}
		clocks = append(clocks, now)
	}
	for _, when := range []Time{5, 15, 15, 30} {
		e.Advance(when)
	}
	want := []Time{5, 15, 15, 30}
	if len(clocks) != len(want) {
		t.Fatalf("OnDeliver fired %d times, want %d", len(clocks), len(want))
	}
	for i := range want {
		if clocks[i] != want[i] {
			t.Fatalf("OnDeliver clocks %v, want %v", clocks, want)
		}
	}
}

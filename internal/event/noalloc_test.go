package event

import "testing"

// Schedule and Run allocate nothing in steady state, and this test is what
// holds them to it. The first round grows the queue to its high-water mark
// (the amortized append in Schedule); every later round reuses that backing
// array.
//
// The test counts every allocation over 200 rounds, as one AllocsPerRun run
// of a 200-round loop: AllocsPerRun divides by its run count in integers, so
// 200 runs would forgive up to 199 allocations and hide the amortized growth
// of a slice that a hot path keeps appending to.
func TestScheduleRunNoAllocs(t *testing.T) {
	e := New()
	h := HandlerFunc(func(Event) {})
	work := func() {
		for i := Time(0); i < 16; i++ {
			if err := e.Schedule(e.Now()+i%7*3, h, nil); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
	}
	work()
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			work()
		}
	})
	if allocs != 0 {
		t.Errorf("schedule+run: %v allocs in 200 rounds, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after Run", e.Pending())
	}
}

package event

import "testing"

// The //cpelide:noalloc annotations on the engine's hot paths are enforced
// statically by the cpelint noalloc pass; this test is the dynamic
// counterpart. The first round grows the queue to its high-water mark (the
// baselined append in Schedule); every later round reuses that backing array.
func TestScheduleRunNoAllocs(t *testing.T) {
	e := New()
	h := HandlerFunc(func(Event) {})
	work := func() {
		for i := Time(0); i < 16; i++ {
			if err := e.ScheduleAfter(i%7*3, h, nil); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
	}
	work()
	if allocs := testing.AllocsPerRun(200, work); allocs != 0 {
		t.Errorf("schedule+run: %v allocs/op, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after Run", e.Pending())
	}
}

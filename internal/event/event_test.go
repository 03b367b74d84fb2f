package event

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []Time
	h := HandlerFunc(func(ev Event) { got = append(got, ev.When) })
	for _, when := range []Time{50, 10, 30, 20, 40} {
		e.Schedule(when, h, nil)
	}
	end := e.Run()
	if end != 50 {
		t.Errorf("final clock = %d", end)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("delivery out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("delivered %d events", len(got))
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, HandlerFunc(func(Event) { got = append(got, i) }), nil)
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestEngineCascade(t *testing.T) {
	e := New()
	count := 0
	var h HandlerFunc
	h = func(ev Event) {
		count++
		if count < 5 {
			e.Schedule(e.Now()+7, h, nil)
		}
	}
	e.Schedule(0, h, nil)
	end := e.Run()
	if count != 5 || end != 28 {
		t.Errorf("count=%d end=%d, want 5, 28", count, end)
	}
}

func TestEnginePayloadAndNow(t *testing.T) {
	e := New()
	e.Schedule(5, HandlerFunc(func(ev Event) {
		if ev.Payload.(string) != "x" {
			t.Error("payload lost")
		}
		if e.Now() != 5 {
			t.Errorf("Now = %d during handler", e.Now())
		}
	}), "x")
	e.Run()
}

func TestEnginePastScheduleError(t *testing.T) {
	e := New()
	delivered := false
	e.Schedule(10, HandlerFunc(func(Event) {
		if err := e.Schedule(5, HandlerFunc(func(Event) { delivered = true }), nil); !errors.Is(err, ErrPastEvent) {
			t.Errorf("Schedule(past) = %v, want ErrPastEvent", err)
		}
		if err := e.Schedule(e.Now()+1, HandlerFunc(func(Event) {}), nil); err != nil {
			t.Errorf("Schedule(now+1) = %v, want nil", err)
		}
	}), nil)
	e.Run()
	if delivered {
		t.Error("a past-scheduled event was enqueued and delivered")
	}
}

func TestEngineStopLeavesCalendarAndRunResumes(t *testing.T) {
	e := New()
	var got []Time
	h := HandlerFunc(func(ev Event) {
		got = append(got, ev.When)
		if ev.When == 20 {
			e.Stop()
		}
	})
	for _, when := range []Time{10, 20, 30, 40} {
		e.Schedule(when, h, nil)
	}
	end := e.Run()
	if end != 20 {
		t.Errorf("first Run stopped at %d, want 20", end)
	}
	if e.Pending() != 2 {
		t.Fatalf("Stop drained the calendar: %d pending, want 2", e.Pending())
	}
	// Run resumes from the remaining calendar: the stopped flag is cleared
	// at entry and the undelivered events fire in order.
	end = e.Run()
	if end != 40 {
		t.Errorf("resumed Run ended at %d, want 40", end)
	}
	want := []Time{10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestEngineOnDeliver(t *testing.T) {
	e := New()
	var clocks []Time
	e.OnDeliver = func(t Time) { clocks = append(clocks, t) }
	h := HandlerFunc(func(ev Event) {
		if e.Now() != ev.When {
			t.Errorf("OnDeliver/handler clock mismatch at %d", ev.When)
		}
	})
	for _, when := range []Time{5, 15, 25} {
		e.Schedule(when, h, nil)
	}
	e.Run()
	e.Schedule(30, h, nil)
	e.Run()
	want := []Time{5, 15, 25, 30}
	if len(clocks) != len(want) {
		t.Fatalf("OnDeliver fired %d times, want %d", len(clocks), len(want))
	}
	for i := range want {
		if clocks[i] != want[i] {
			t.Fatalf("OnDeliver clocks %v, want %v", clocks, want)
		}
	}
}

// Property: any random schedule, including events that handlers schedule
// during delivery, is delivered completely and in (time, schedule-order)
// order: same-time events stay FIFO.
func TestEngineOrderProperty(t *testing.T) {
	type delivery struct {
		when Time
		id   int
	}
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		e := New()
		n := rnd.Intn(200)
		var got []delivery
		next := 0
		var h HandlerFunc
		schedule := func(t Time) {
			e.Schedule(t, h, next)
			next++
		}
		h = func(ev Event) {
			got = append(got, delivery{ev.When, ev.Payload.(int)})
			if rnd.Intn(4) == 0 {
				schedule(e.Now() + Time(rnd.Intn(20)))
			}
		}
		for i := 0; i < n; i++ {
			schedule(Time(rnd.Intn(1000)))
		}
		e.Run()
		if len(got) != next {
			t.Fatalf("delivered %d of %d", len(got), next)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.when < a.when || (b.when == a.when && b.id < a.id) {
				t.Fatalf("out of order at %d: %+v after %+v", i, b, a)
			}
		}
	}
}

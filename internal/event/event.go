// Package event provides the discrete-event simulation engine that sequences
// kernel launches, synchronization operations, and completions across
// chiplets and streams.
//
// The engine is a classic calendar: handlers schedule events at absolute
// cycle times; Run pops them in time order and invokes their handlers, which
// may schedule further events. Ties are broken by insertion order so
// simulations are deterministic.
//
// The simulator is kernel-granular, so the calendar is tiny: a few pending
// events at most (DESIGN §16). It is a slice kept sorted by (When, seq):
// Schedule inserts by a linear scan from the tail and Run pops the head.
package event

import "errors"

// ErrPastEvent reports an attempt to schedule an event before the current
// clock: a causality bug in the caller. It is returned (not panicked) so
// embedding simulations can surface it as a run error instead of crashing
// a worker.
var ErrPastEvent = errors.New("event: scheduled in the past")

// Time is an absolute simulation time in GPU core cycles.
type Time uint64

// Handler consumes an event when the simulation clock reaches its time.
type Handler interface {
	// Handle processes the event. It runs exactly once, at the event's
	// scheduled time, with the engine clock already advanced.
	Handle(e Event)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(e Event)

// Handle calls f(e).
func (f HandlerFunc) Handle(e Event) { f(e) }

// Event is one scheduled occurrence.
type Event struct {
	When    Time
	Handler Handler
	Payload any

	seq uint64 // tie-break: FIFO among events at the same time
}

// CalendarKind is retained only so option structs that still carry a
// calendar field keep compiling; there is one calendar and no kinds.
type CalendarKind uint8

// Engine owns the simulation clock and the pending-event calendar.
// The zero value is ready to use.
type Engine struct {
	now     Time
	nextSeq uint64
	stopped bool

	// queue holds the pending events sorted by (When, seq); the earliest is
	// queue[0].
	queue []Event

	// OnDeliver, when non-nil, is invoked with the (already advanced) clock
	// before each event's handler runs. The trace recorder uses it as its
	// clock source; observers must not schedule or deliver events.
	OnDeliver func(Time)
}

// New returns an Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events not yet delivered.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues an event for handler h at absolute time t with the given
// payload. Scheduling in the past (t < Now) returns ErrPastEvent and enqueues
// nothing: it indicates a causality bug in the caller, which should stop the
// simulation and surface the error. In steady state it allocates nothing:
// the queue reuses its backing array.
func (e *Engine) Schedule(t Time, h Handler, payload any) error {
	if t < e.now {
		return ErrPastEvent
	}
	// A new event sorts after every pending event with When <= t (its seq
	// is the largest), so scan from the tail for its slot.
	i := len(e.queue)
	for i > 0 && e.queue[i-1].When > t {
		i--
	}
	// The queue grows to the pending high-water mark, then stabilizes.
	e.queue = append(e.queue, Event{})
	copy(e.queue[i+1:], e.queue[i:])
	e.queue[i] = Event{When: t, Handler: h, Payload: payload, seq: e.nextSeq}
	e.nextSeq++
	return nil
}

// Stop makes Run return after the current event's handler completes.
func (e *Engine) Stop() { e.stopped = true }

// Run delivers events in time order until the calendar drains or Stop is
// called, and returns the final clock value.
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		ev := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = Event{} // drop the vacated slot's handler and payload
		e.queue = e.queue[:n]
		e.now = ev.When
		if e.OnDeliver != nil {
			e.OnDeliver(e.now)
		}
		ev.Handler.Handle(ev)
	}
	return e.now
}

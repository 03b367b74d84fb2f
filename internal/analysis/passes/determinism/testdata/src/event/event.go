// Package event is a fixture stub of the simulator's event engine: cpelint
// matches Engine methods by package and type name, so the stub exercises the
// engine-aware rules without importing the real engine.
package event

// Time is the simulated clock, in cycles.
type Time uint64

// Event pairs a firing time with its payload.
type Event struct {
	T       Time
	Payload any
}

// Handler consumes a fired event.
type Handler interface {
	Handle(e Event)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(e Event)

// Handle implements Handler.
func (f HandlerFunc) Handle(e Event) { f(e) }

// Engine is the stub scheduler.
type Engine struct{}

// Schedule enqueues h at absolute time t.
func (e *Engine) Schedule(t Time, h Handler, payload any) error { return nil }

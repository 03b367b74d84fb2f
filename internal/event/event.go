// Package event holds the simulation clock.
//
// The simulator is kernel-granular: the global CP wakes only at kernel
// completions, and cp.Runner.Run computes each next wake itself (DESIGN
// §16), so there is no event calendar. The Engine is the clock that loop
// advances, with a hook observers use as their clock source.
package event

// Time is an absolute simulation time in GPU core cycles.
type Time uint64

// CalendarKind is retained only so option structs that still carry a
// calendar field keep compiling; there is no calendar and no kinds.
type CalendarKind uint8

// Engine owns the simulation clock. The zero value is ready to use.
type Engine struct {
	now Time

	// OnDeliver, when non-nil, is invoked with the new clock on every
	// Advance. The trace recorder uses it as its clock source.
	OnDeliver func(Time)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Advance sets the clock to t and calls OnDeliver. The caller never moves
// the clock backwards.
func (e *Engine) Advance(t Time) {
	e.now = t
	if e.OnDeliver != nil {
		e.OnDeliver(t)
	}
}

package event

// Phase identifies a simulator component for host wall-time attribution.
// The engine and the components it drives mark the phase they are entering
// through a Profiler; a sampling profiler (internal/metrics.PhaseProfiler)
// then attributes host time to whichever phase was current at each sample.
//
// The constants deliberately live here rather than in the profiler package:
// simulation-critical code may mark phases (a marker is one atomic store)
// but must never read the wall clock itself — the cpelint determinism pass
// enforces that split.
type Phase uint8

const (
	// PhaseIdle is everything outside the event loop: workload
	// construction, machine assembly, report generation.
	PhaseIdle Phase = iota
	// PhaseCalendar is event-calendar bookkeeping: queue inserts and pops,
	// clock advancement, dispatch-loop overhead.
	PhaseCalendar
	// PhaseCP is the global command processor: stream readiness checks,
	// launch dispatch, per-kernel record keeping.
	PhaseCP
	// PhaseCCT is coherence decision making: the Chiplet Coherence Table
	// lookup (or the baseline/HMG equivalent) that turns a launch into a
	// synchronization plan.
	PhaseCCT
	// PhaseSync is synchronization plan execution: the cache flush and
	// invalidate operations the plan requires, including watchdog retries.
	PhaseSync
	// PhaseKernel is kernel execution: WG access-stream generation and the
	// compute/memory-overlap timing model.
	PhaseKernel
	// PhaseNoC is the per-access memory-system walk: L1/L2/L3 lookups,
	// crossbar and DRAM traffic accounting behind each simulated access.
	PhaseNoC

	// NumPhases bounds the Phase space for profiler arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseIdle:     "idle",
	PhaseCalendar: "calendar",
	PhaseCP:       "cp",
	PhaseCCT:      "cct",
	PhaseSync:     "sync",
	PhaseKernel:   "kernel",
	PhaseNoC:      "noc",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Profiler attributes host wall time to simulator phases. Implementations
// must make SetPhase safe for concurrent use with their own sampling and
// cheap enough to call on hot paths (one atomic store). The simulation core
// only ever marks phases through this interface; nil means profiling is off
// and every marker site reduces to a pointer test.
type Profiler interface {
	// SetPhase marks the component that is about to run and returns the
	// previously current phase, so callers can restore it when they return.
	SetPhase(p Phase) Phase
}

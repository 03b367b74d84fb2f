// Package trace records a simulation's timeline: kernel spans per stream,
// chiplet-targeted synchronization operations with line counts, per-launch
// synchronization-plan exposure, inter-chiplet transfer volumes, and the
// command processor's elision audit log (which implicit acquires/releases
// were issued vs. elided at each kernel boundary, and the coherence-table
// state that justified the decision).
//
// The Recorder is allocation-conscious: events are fixed-size structs stored
// in a flat slice, kernel names are the interned strings of the static
// kernel descriptors, and an optional ring-buffer mode bounds memory on
// long sweeps by keeping only the most recent events. All methods are
// nil-safe no-ops on a nil *Recorder, mirroring the stats.Sheet convention,
// so instrumented hot paths pay a single nil check when tracing is off.
//
// The Recorder is single-threaded, like the simulator that feeds it.
package trace

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindKernel is a kernel execution span on a stream track.
	KindKernel Kind = iota
	// KindSync is a cache-maintenance operation (flush or invalidate) on a
	// chiplet track.
	KindSync
	// KindPlan is one launch's synchronization-plan exposure (the cycles a
	// kernel's start waited on cache maintenance and CP messaging).
	KindPlan
	// KindXfer is the inter-chiplet transfer volume (remote flits) a kernel
	// generated, recorded at kernel completion.
	KindXfer
	// KindJob is one experiment-farm job's lifetime on a worker track
	// (queued -> running -> done/cached/error). Unlike the simulation
	// kinds, its timestamps are wall-clock microseconds since the farm
	// started, so Perfetto shows farm occupancy alongside simulation
	// events on its own process row.
	KindJob
	// KindOracle is one memory-model violation flagged by the golden-model
	// consistency oracle (internal/oracle): a load that could legally have
	// observed a stale value given the synchronization the CP issued.
	KindOracle
)

func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindSync:
		return "sync"
	case KindPlan:
		return "plan"
	case KindXfer:
		return "xfer"
	case KindJob:
		return "job"
	case KindOracle:
		return "oracle"
	}
	return "unknown"
}

// OpKind distinguishes the two cache-maintenance operations without
// importing the coherence package (which sits above this one).
type OpKind uint8

const (
	// Release is a dirty-data flush to the ordering point.
	Release OpKind = iota
	// Acquire is an invalidation (dirty lines written back first).
	Acquire
)

func (k OpKind) String() string {
	if k == Release {
		return "release"
	}
	return "acquire"
}

// Event is one fixed-size timeline record. Field meaning varies by Kind:
//
//	KindKernel: Stream/Name/Inst set; Ts..Ts+Dur is the kernel span;
//	            Lines unused; Cycles is the exposed synchronization portion.
//	KindSync:   Chiplet/Op set; Ts is the launch boundary; Dur = op cycles;
//	            Lines is the number of lines written back or invalidated.
//	KindPlan:   Stream/Inst set; Dur = exposed cycles; Lines = op count.
//	KindXfer:   Stream/Inst set; Lines = remote flits during the kernel.
//	KindJob:    Chiplet = farm worker (-1 for cache hits); Name is the job
//	            label with its terminal state; Ts = enqueue time (wall us),
//	            Ts+Dur = completion, Cycles = absolute execution start.
type Event struct {
	Kind    Kind
	Op      OpKind
	Stream  int32
	Chiplet int32
	Inst    int32
	Name    string
	Ts      uint64
	Dur     uint64
	Lines   uint64
	Cycles  uint64
}

// ChipletDecision records what one kernel boundary did on one chiplet.
type ChipletDecision struct {
	Chiplet       int
	ReleaseIssued bool
	AcquireIssued bool
}

// Audit is the elision audit record of one kernel boundary: the operations
// the Chiplet Coherence Table issued per chiplet, the per-launch elision
// counter increments (matching the stats.Sheet accounting exactly), and the
// pre-launch table state that justified the decisions.
type Audit struct {
	Ts     uint64
	Kernel string
	Inst   int
	Stream int

	Decisions []ChipletDecision

	// Per-launch increments, identical to what the protocol added to the
	// sync.{acquires,releases}{,_elided} counters for this boundary.
	AcquiresIssued uint64
	ReleasesIssued uint64
	AcquiresElided uint64
	ReleasesElided uint64

	// Table is the pre-launch Chiplet Coherence Table snapshot.
	Table string
}

// Recorder accumulates events and audit records. Use New to build one; a
// nil *Recorder is a valid no-op sink.
type Recorder struct {
	limit int // >0 bounds events and audits to the most recent limit each

	now uint64

	events  []Event
	head    int // ring start when len(events) == limit
	dropped uint64

	audits       []Audit
	auditHead    int
	auditDropped uint64
}

// New returns a Recorder. limit > 0 enables ring-buffer mode: only the most
// recent limit events (and limit audit records) are retained, so unbounded
// sweeps stay bounded. limit <= 0 retains everything.
func New(limit int) *Recorder {
	r := &Recorder{limit: limit}
	if limit > 0 {
		r.events = make([]Event, 0, limit)
	}
	return r
}

// Enabled reports whether r records anything; callers building expensive
// event payloads (snapshots, audit records) should check it first.
func (r *Recorder) Enabled() bool { return r != nil }

// SetNow advances the recorder's clock; the event engine drives this as it
// delivers events, so emissions deep in the machine need no time plumbing.
func (r *Recorder) SetNow(t uint64) {
	if r == nil {
		return
	}
	r.now = t
}

// Now returns the recorder's current clock value.
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.now
}

// push appends e, overwriting the oldest event in ring-buffer mode.
func (r *Recorder) push(e Event) {
	if r.limit > 0 && len(r.events) == r.limit {
		r.events[r.head] = e
		r.head = (r.head + 1) % r.limit
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Kernel records one kernel execution span: stream-track [start, start+dur),
// with the exposed synchronization portion in cycles.
func (r *Recorder) Kernel(stream int, name string, inst int, start, dur, syncCycles uint64) {
	if r == nil {
		return
	}
	r.push(Event{
		Kind: KindKernel, Stream: int32(stream), Inst: int32(inst),
		Name: name, Ts: start, Dur: dur, Cycles: syncCycles,
	})
}

// Sync records a cache-maintenance operation on a chiplet at the current
// clock: a Release (flush, lines written back) or Acquire (invalidate,
// lines dropped) taking cycles.
func (r *Recorder) Sync(chiplet int, op OpKind, lines, cycles uint64) {
	if r == nil {
		return
	}
	r.push(Event{
		Kind: KindSync, Op: op, Chiplet: int32(chiplet),
		Ts: r.now, Dur: cycles, Lines: lines, Cycles: cycles,
	})
}

// Plan records one launch plan's exposure: ops operations whose maintenance
// and CP messaging exposed the given cycles before the kernel could start.
func (r *Recorder) Plan(ops int, exposed uint64) {
	if r == nil {
		return
	}
	r.push(Event{Kind: KindPlan, Ts: r.now, Dur: exposed, Lines: uint64(ops)})
}

// Transfer records the inter-chiplet traffic (remote flits) a kernel
// generated, stamped at the kernel's launch time.
func (r *Recorder) Transfer(stream, inst int, flits uint64) {
	if r == nil {
		return
	}
	r.push(Event{Kind: KindXfer, Stream: int32(stream), Inst: int32(inst), Ts: r.now, Lines: flits})
}

// Job records one experiment-farm job span: the worker that ran it (-1 for
// cache hits, which never occupy a worker), a display name that includes
// the terminal state, and the enqueue/execution-start/completion times in
// wall-clock microseconds since the farm started. The farm serializes
// calls; the Recorder itself stays single-threaded.
func (r *Recorder) Job(worker int, name string, queued, start, end uint64) {
	if r == nil {
		return
	}
	if start < queued {
		start = queued
	}
	if end < start {
		end = start
	}
	r.push(Event{
		Kind: KindJob, Chiplet: int32(worker), Name: name,
		Ts: queued, Dur: end - queued, Cycles: start,
	})
}

// Oracle records one memory-model violation from the consistency oracle:
// rule names the violated rule, chiplet the accessor that could observe
// stale data (-1 for end-of-program checks), and line the affected address.
func (r *Recorder) Oracle(chiplet int, rule string, line uint64) {
	if r == nil {
		return
	}
	r.push(Event{
		Kind: KindOracle, Chiplet: int32(chiplet), Name: rule,
		Ts: r.now, Lines: line,
	})
}

// AuditKernel records one kernel boundary's elision audit entry.
func (r *Recorder) AuditKernel(a Audit) {
	if r == nil {
		return
	}
	if r.limit > 0 && len(r.audits) == r.limit {
		r.audits[r.auditHead] = a
		r.auditHead = (r.auditHead + 1) % r.limit
		r.auditDropped++
		return
	}
	r.audits = append(r.audits, a)
}

// Events returns the retained events in chronological (recording) order.
// The returned slice is freshly allocated.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// Audits returns the retained audit records in recording order.
func (r *Recorder) Audits() []Audit {
	if r == nil {
		return nil
	}
	out := make([]Audit, 0, len(r.audits))
	out = append(out, r.audits[r.auditHead:]...)
	out = append(out, r.audits[:r.auditHead]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events ring-buffer mode discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset discards all recorded events and audit records and rewinds the
// clock, keeping the configured limit.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.now = 0
	r.events = r.events[:0]
	r.head = 0
	r.dropped = 0
	r.audits = nil
	r.auditHead = 0
	r.auditDropped = 0
}

// Package cp models the redesigned command-processor hierarchy of Figure 4b:
// a global CP that interfaces with the host, holds the hardware queues, and
// dispatches work across chiplets, plus per-chiplet local CPs that dispatch
// WGs and execute cache maintenance. Streams map to hardware queues; kernels
// within a stream execute in order while different streams run concurrently
// on their bound chiplets (the paper binds stream i to chiplet set j via
// hipSetDevice).
package cp

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

// StreamSpec is one GPU stream: a kernel sequence bound to a chiplet set.
type StreamSpec struct {
	Workload *kernels.Workload
	// Chiplets binds the stream; nil binds it to all chiplets.
	Chiplets []int
}

// Record is the execution record of one dynamic kernel.
type Record struct {
	Launch *coherence.Launch
	Start  event.Time
	End    event.Time
	Result gpu.KernelResult

	// Delta is the kernel's counter activity (RunnerConfig.PerKernel only):
	// additive counters hold the increase during this kernel, peak/level
	// counters their running absolute value. Merging every Record's Delta
	// plus the Runner's FinalDelta reconstructs the run-total sheet.
	Delta *stats.Sheet
}

// PagePlacement selects the NUMA page placement policy (Section IV-C1 uses
// first touch; the paper notes "different placement policies can skew
// performance").
type PagePlacement uint8

const (
	// PlacementFirstTouch homes each page on its overwhelming first
	// toucher: partition-aligned for partitioned structures, interleaved
	// for broadcast/gather structures every chiplet races to.
	PlacementFirstTouch PagePlacement = iota
	// PlacementInterleaved round-robins every structure's pages across
	// the stream's chiplets.
	PlacementInterleaved
	// PlacementSingle homes everything on the stream's first chiplet —
	// the naive "allocate on device 0" policy with maximal remote traffic.
	PlacementSingle
)

// RunnerConfig selects the software-visible policies of a run.
type RunnerConfig struct {
	// RangeInfo selects hipSetAccessModeRange metadata (per-chiplet
	// ranges); false degrades to hipSetAccessMode (whole-structure ranges
	// per assigned chiplet), the annotation ablation.
	RangeInfo bool
	// Placement is the page placement policy.
	Placement PagePlacement
	// InferAnnotations derives each launch's declared ranges from a
	// profiling pass over its actual accesses (record-and-replay style
	// automation of the paper's annotations) instead of static analysis.
	InferAnnotations bool
	// PerKernel snapshots the stats sheet at every kernel boundary and
	// attaches the delta to each Record (plus the Runner's FinalDelta for
	// end-of-program activity).
	PerKernel bool
	// Ctx, when non-nil, is polled at every kernel boundary while a launch
	// is left undispatched: once it is canceled the runner stops
	// dispatching, Run returns, and Canceled reports true. Kernels already
	// dispatched complete (the simulated GPU has no preemption), so
	// cancellation latency is one kernel span.
	Ctx context.Context
	// Deprecated: ignored; kept because perfbench sets it.
	Calendar event.CalendarKind
}

// Runner owns the global CP's dispatch loop and the simulation clock.
type Runner struct {
	Eng *event.Engine
	X   *gpu.Executor
	Cfg RunnerConfig

	streams     []*streamState
	chipletBusy []event.Time
	Records     []Record

	// FinalDelta is the counter activity after the last kernel (end-of-
	// program releases, total-cycle accounting) when Cfg.PerKernel is set.
	FinalDelta *stats.Sheet

	left int // launches not yet dispatched
	// canceled stops dispatch once Cfg.Ctx is canceled. The protocol's
	// tracked state is left as it stands: a canceled run yields no report,
	// and no caller reuses its protocol.
	canceled bool
}

type streamState struct {
	id       int
	chiplets []int
	launches []*coherence.Launch
	next     int
	prevEnd  event.Time
	started  bool
}

// NewRunner builds a runner for the given streams on executor x.
func NewRunner(x *gpu.Executor, specs []StreamSpec, rc RunnerConfig) (*Runner, error) {
	m := x.M
	r := &Runner{
		Eng:         &event.Engine{},
		X:           x,
		Cfg:         rc,
		chipletBusy: make([]event.Time, m.Cfg.NumChiplets),
	}
	for i, spec := range specs {
		if err := spec.Workload.Validate(); err != nil {
			return nil, err
		}
		chs := spec.Chiplets
		if len(chs) == 0 {
			chs = allChiplets(m.Cfg.NumChiplets)
		}
		for _, c := range chs {
			if c < 0 || c >= m.Cfg.NumChiplets {
				return nil, fmt.Errorf("cp: stream %d bound to invalid chiplet %d", i, c)
			}
		}
		ss := &streamState{id: i, chiplets: chs}
		for inst, k := range spec.Workload.Sequence {
			l := BuildLaunch(k, inst, i, chs, m.Cfg.LineSize, rc.RangeInfo)
			if rc.InferAnnotations {
				l.ArgRanges = InferArgRanges(k, inst, spec.Workload.Seed,
					len(chs), m.Cfg.CUsPerChiplet, m.Cfg.LineSize, m.Cfg.PageSize)
			}
			ss.launches = append(ss.launches, l)
		}
		r.left += len(ss.launches)
		r.streams = append(r.streams, ss)
		prePlace(m, spec.Workload, chs, rc.Placement)
	}
	// The clock drives the recorder so emissions deep in the machine carry
	// launch-boundary timestamps without any time plumbing. SetNow is
	// nil-safe.
	rec := m.Trace
	r.Eng.OnDeliver = func(t event.Time) { rec.SetNow(uint64(t)) }
	return r, nil
}

func allChiplets(n int) []int {
	chs := make([]int, n)
	for i := range chs {
		chs[i] = i
	}
	return chs
}

// BuildLaunch assembles the launch packet the global CP's packet processor
// consumes: the kernel plus per-argument, per-chiplet range metadata.
func BuildLaunch(k *kernels.Kernel, inst, stream int, chiplets []int, lineSize int, rangeInfo bool) *coherence.Launch {
	l := &coherence.Launch{
		Kernel:   k,
		Inst:     inst,
		Stream:   stream,
		Chiplets: chiplets,
	}
	l.ArgRanges = make([][]mem.RangeSet, len(k.Args))
	backing := make([]mem.RangeSet, len(k.Args)*len(chiplets))
	for ai := range k.Args {
		l.ArgRanges[ai] = backing[ai*len(chiplets) : (ai+1)*len(chiplets) : (ai+1)*len(chiplets)]
		for slot := range chiplets {
			if rangeInfo {
				l.ArgRanges[ai][slot] = kernels.ArgRanges(k, ai, slot, len(chiplets), lineSize)
			} else {
				// hipSetAccessMode only: mode is known, ranges are not, so
				// every assigned chiplet conservatively declares the full
				// structure.
				l.ArgRanges[ai][slot] = mem.NewRangeSet(k.Args[ai].DS.Range())
			}
		}
	}
	return l
}

// prePlace warms first-touch page placement to what racing WGs on a live
// GPU converge to. Serial trace processing would otherwise home pages on
// whichever chiplet happens to be processed first — e.g. a neighbor's
// single halo-line read would win a boundary page its owner touches 4096
// times, and broadcast sweeps would home everything on chiplet 0.
//
//   - Linear / Strided / Stencil structures: each page goes to the chiplet
//     whose WG partition covers it in the first kernel that uses the
//     structure (the overwhelming first toucher).
//   - Broadcast / Indirect structures: pages interleave round-robin across
//     the stream's chiplets (every chiplet races every page).
func prePlace(m *machine.Machine, w *kernels.Workload, chiplets []int, policy PagePlacement) {
	if m.Cfg.NumChiplets == 1 {
		return
	}
	if policy == PlacementSingle {
		for _, d := range w.Structures {
			m.Pages.PlaceRange(d.Range(), chiplets[0])
		}
		return
	}
	interleave := func(d *kernels.DataStructure) {
		ps := mem.Addr(m.Cfg.PageSize)
		r := d.Range()
		i := 0
		for lo := r.Lo; lo < r.Hi; lo += ps {
			hi := lo + ps
			if hi > r.Hi {
				hi = r.Hi
			}
			m.Pages.PlaceRange(mem.Range{Lo: lo, Hi: hi}, chiplets[i%len(chiplets)])
			i++
		}
	}
	if policy == PlacementInterleaved {
		for _, d := range w.Structures {
			interleave(d)
		}
		return
	}
	placed := map[*kernels.DataStructure]bool{}
	for _, k := range w.Sequence {
		for ai := range k.Args {
			a := &k.Args[ai]
			if placed[a.DS] {
				continue
			}
			placed[a.DS] = true
			if a.Pattern == kernels.Broadcast || a.Pattern == kernels.Indirect {
				interleave(a.DS)
				continue
			}
			for slot, c := range chiplets {
				r := kernels.PartitionByteRange(a.DS, k.WGs, len(chiplets), slot, m.Cfg.LineSize)
				m.Pages.PlaceRange(r, c)
			}
		}
	}
}

// Run executes all streams to completion and returns the total cycle count
// (including the end-of-program releases). The global CP wakes at time 0
// and then at each kernel completion: after a dispatch, the next wake is the
// earliest stream completion after now, and the run ends when there is none
// or Cfg.Ctx is canceled. The error is always nil.
func (r *Runner) Run() (uint64, error) {
	for now, more := event.Time(0), true; more && !r.canceled; {
		r.Eng.Advance(now)
		r.dispatch(now)
		now, more = r.nextWake(now)
	}
	var pre *stats.Sheet
	if r.Cfg.PerKernel {
		pre = r.X.M.Sheet.Clone()
	}
	total := uint64(r.Eng.Now()) + r.X.Finalize()
	r.X.M.Sheet.Set(stats.TotalCycles, total)
	if r.Cfg.PerKernel {
		r.FinalDelta = r.X.M.Sheet.DeltaFrom(pre)
	}
	return total, nil
}

// nextWake returns the earliest stream completion after now; ok is false
// when every stream has completed by now. A stream issues only once its
// previous kernel has completed, so its latest completion is its only
// future wake.
func (r *Runner) nextWake(now event.Time) (next event.Time, ok bool) {
	for _, ss := range r.streams {
		if ss.prevEnd > now && (!ok || ss.prevEnd < next) {
			next, ok = ss.prevEnd, true
		}
	}
	return next, ok
}

// Canceled reports whether the run was stopped early because Cfg.Ctx was
// canceled before every kernel had dispatched.
func (r *Runner) Canceled() bool { return r.canceled }

// ctxDone polls Cfg.Ctx without blocking.
func (r *Runner) ctxDone() bool {
	if r.Cfg.Ctx == nil {
		return false
	}
	select {
	case <-r.Cfg.Ctx.Done():
		return true
	default:
		return false
	}
}

// dispatch issues every stream whose head kernel is ready at now. Issuing
// only moves a stream or chiplet from ready to busy (its completion is at
// or after now), so one pass leaves nothing ready at now.
func (r *Runner) dispatch(now event.Time) {
	if r.left > 0 && r.ctxDone() {
		r.canceled = true
		return
	}
	for _, ss := range r.streams {
		for ss.next < len(ss.launches) && r.ready(ss, now) {
			if r.ctxDone() {
				r.canceled = true
				return
			}
			l := ss.launches[ss.next]
			exposeCP := !ss.started
			ss.started = true
			sheet, rec := r.X.M.Sheet, r.X.M.Trace
			var pre *stats.Sheet
			if r.Cfg.PerKernel {
				pre = sheet.Clone()
			}
			var remote0 uint64
			if rec != nil {
				remote0 = sheet.Get(stats.FlitsRemote)
			}
			res := r.X.RunKernel(l, exposeCP)
			endT := now + event.Time(res.Cycles)
			record := Record{Launch: l, Start: now, End: endT, Result: res}
			if r.Cfg.PerKernel {
				record.Delta = sheet.DeltaFrom(pre)
			}
			if rec != nil {
				rec.Kernel(ss.id, l.Kernel.Name, l.Inst, uint64(now), res.Cycles, res.SyncCycles)
				rec.Transfer(ss.id, l.Inst, sheet.Get(stats.FlitsRemote)-remote0)
			}
			r.Records = append(r.Records, record)
			ss.prevEnd = endT
			for _, c := range ss.chiplets {
				r.chipletBusy[c] = endT
			}
			ss.next++
			r.left--
			if endT > now {
				break // later kernels of this stream wait for completion
			}
		}
	}
}

// ready reports whether stream ss's next kernel can start now.
func (r *Runner) ready(ss *streamState, now event.Time) bool {
	if ss.prevEnd > now {
		return false
	}
	for _, c := range ss.chiplets {
		if r.chipletBusy[c] > now {
			return false
		}
	}
	return true
}

// Package cpelide is a simulation library reproducing "CPElide: Efficient
// Multi-Chiplet GPU Implicit Synchronization" (MICRO 2024).
//
// It models a multi-chiplet GPU (per-CU L1s, per-chiplet L2s, a banked
// shared L3 as the inter-chiplet ordering point, first-touch NUMA page
// placement, and a bandwidth-limited crossbar) and three coherence
// configurations:
//
//   - Baseline: the VIPER-chiplet protocol with conservative GPU-wide L2
//     flush+invalidate at every kernel boundary.
//   - CPElide: the paper's contribution — a Chiplet Coherence Table in the
//     global command processor that tracks data structures per chiplet and
//     performs lazy, chiplet-targeted acquires and releases only when a
//     cross-chiplet dependence requires them.
//   - HMG: the state-of-the-art hierarchical coherence protocol (write
//     through L2s with a per-chiplet sharer directory), plus its write-back
//     ablation variant.
//
// Every run is functionally checked: all caches carry data versions and any
// read observing a version older than the newest write is reported as a
// stale read, so eliding a required synchronization is detected, not just
// mistimed.
//
// The top-level entry point is Run (one workload, one configuration) or
// RunStreams (multi-stream). The workloads package provides descriptors for
// the paper's 24 benchmarks, and the experiments package regenerates each
// figure and table.
package cpelide

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/energy"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/hip"
	"repro/internal/hmg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Re-exported types so library users can build machines and workloads
// without reaching into internal packages.
type (
	// Config is the simulated GPU description (Table I parameters).
	Config = config.GPU
	// Workload is a benchmark: allocations plus a dynamic kernel sequence.
	Workload = kernels.Workload
	// Kernel is a static kernel description.
	Kernel = kernels.Kernel
	// Arg binds a data structure into a kernel.
	Arg = kernels.Arg
	// DataStructure is one global-memory allocation.
	DataStructure = kernels.DataStructure
	// Allocator hands out page-aligned data-structure addresses.
	Allocator = kernels.Allocator
	// StreamSpec binds a workload's kernel sequence to a chiplet set.
	StreamSpec = cp.StreamSpec
	// Sheet is a set of named simulation counters.
	Sheet = stats.Sheet
	// EnergyBreakdown is the Figure 9 energy decomposition.
	EnergyBreakdown = energy.Breakdown
	// TraceRecorder records a run's timeline (kernel spans, sync ops,
	// elision audits) for Chrome-trace export; see Options.Trace.
	TraceRecorder = trace.Recorder
	// Histogram is a log2-bucketed latency histogram.
	Histogram = stats.Histogram
	// FaultConfig selects a deterministic fault-injection campaign; see
	// Options.Faults.
	FaultConfig = faults.Config
	// FaultCounters tallies what a run's fault injector and CP watchdog did.
	FaultCounters = faults.Counters
	// Oracle is the golden-model consistency checker; see Options.Oracle
	// and NewOracle.
	Oracle = oracle.Oracle
	// OracleSummary is an oracle's campaign digest.
	OracleSummary = oracle.Summary
	// OracleViolation is one detected memory-model violation.
	OracleViolation = oracle.Violation
)

// ParseFaultSpec parses a comma-separated fault specification (the
// cpelide-sim -faults syntax, e.g. "drop=0.1,parity=0.01") into a
// FaultConfig; see faults.ParseSpec for the key list.
func ParseFaultSpec(spec string) (*FaultConfig, error) { return faults.ParseSpec(spec) }

// NewTrace returns a trace recorder to pass in Options.Trace. limit > 0
// enables ring-buffer mode, retaining only the most recent limit events so
// long sweeps stay bounded; limit <= 0 retains everything.
func NewTrace(limit int) *TraceRecorder { return trace.New(limit) }

// Access modes and patterns, re-exported.
const (
	Read      = kernels.Read
	ReadWrite = kernels.ReadWrite

	Linear    = kernels.Linear
	Strided   = kernels.Strided
	Stencil   = kernels.Stencil
	Broadcast = kernels.Broadcast
	Indirect  = kernels.Indirect
)

// HIP-like runtime (the paper's extended ROCm interface), re-exported.
type (
	// Runtime is the HIP-like runtime used to author workloads with the
	// paper's hipSetAccessMode / hipSetAccessModeRange annotations.
	Runtime = hip.Runtime
	// GPUStream is an in-order launch queue, optionally chiplet-bound.
	GPUStream = hip.Stream
	// KernelConfig carries per-kernel execution parameters.
	KernelConfig = hip.KernelConfig
)

// NewRuntime returns a HIP-like runtime with the default page alignment.
func NewRuntime() *Runtime { return hip.NewRuntime(config.Default(4).PageSize) }

// Page placement policies and WG schedules, re-exported.
const (
	PlacementFirstTouch  = cp.PlacementFirstTouch
	PlacementInterleaved = cp.PlacementInterleaved
	PlacementSingle      = cp.PlacementSingle

	RoundRobinCU = kernels.RoundRobinCU
	ChunkedCU    = kernels.ChunkedCU
)

// FuseAdjacent applies software kernel fusion to a workload (the Section VI
// alternative to implicit-synchronization elision).
func FuseAdjacent(w *Workload, maxArgs, maxLDSBytes int) *Workload {
	return kernels.FuseAdjacent(w, kernels.FusionConfig{MaxArgs: maxArgs, MaxLDSBytes: maxLDSBytes})
}

// Annotation options for Runtime.SetAccessMode, re-exported from the
// HIP-like runtime.
var (
	WithHalo            = hip.WithHalo
	WithStride          = hip.WithStride
	WithGather          = hip.WithGather
	WithWorklist        = hip.WithWorklist
	WithReadModifyWrite = hip.WithReadModifyWrite
)

// DefaultConfig returns the Table I machine with n chiplets (2, 4, 6, 7 in
// the paper; 1 is accepted for the monolithic equivalent).
func DefaultConfig(nChiplets int) Config { return config.Default(nChiplets) }

// MonolithicConfig returns the infeasible monolithic GPU equivalent to an
// n-chiplet system, used by Figure 2.
func MonolithicConfig(equivalentChiplets int) Config {
	return config.Monolithic(equivalentChiplets)
}

// MGPUConfig returns a multi-GPU system of MCM-GPUs (Section VI): gpus
// packages of chipletsPerGPU chiplets each, connected by the inter-GPU
// interconnect. CPElide's global view spans all chiplets, so its elision
// applies across the whole system.
func MGPUConfig(gpus, chipletsPerGPU int) Config {
	g := config.Default(gpus * chipletsPerGPU)
	g.NumGPUs = gpus
	return g
}

// NewAllocator returns an allocator for workload data structures, starting
// at the simulator's heap base with the given page alignment.
func NewAllocator(pageSize int) *Allocator {
	return kernels.NewAllocator(HeapBase, pageSize)
}

// HeapBase is where workload allocations start.
const HeapBase mem.Addr = 0x1000_0000

// MaxFootprintBytes bounds the simulated address span of one run, from
// HeapBase to the end of its highest data structure: 4 GiB, about 48 times
// the largest scale-1 input (pathfinder, 85.5 MB). A run's memory image
// costs 8 host bytes per 64 B line, and a Go out-of-memory error kills the
// whole process, so an unbounded footprint scale could take down a server.
const MaxFootprintBytes = 4 << 30

// ErrFootprint reports a run whose footprint exceeds MaxFootprintBytes.
var ErrFootprint = errors.New("cpelide: footprint too large")

// CheckFootprint returns an error wrapping ErrFootprint when a run of specs
// would span more than MaxFootprintBytes. It reads only the workload
// descriptors, so it allocates no memory image; RunStreamsContext makes the
// same check before it acquires a machine.
func CheckFootprint(specs []StreamSpec) error {
	bounds := mem.Range{Lo: HeapBase, Hi: HeapBase}
	for _, s := range specs {
		if s.Workload != nil {
			bounds = bounds.Union(s.Workload.Bounds())
		}
	}
	return checkFootprint(bounds)
}

func checkFootprint(bounds mem.Range) error {
	if n := bounds.Size(); n > MaxFootprintBytes {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrFootprint, n, uint64(MaxFootprintBytes))
	}
	return nil
}

// Protocol selects the coherence configuration of a run.
type Protocol int

const (
	// ProtocolBaseline is the conservative VIPER-chiplet baseline.
	ProtocolBaseline Protocol = iota
	// ProtocolCPElide is the paper's proposal.
	ProtocolCPElide
	// ProtocolHMG is the state-of-the-art comparator (write-through L2s).
	ProtocolHMG
	// ProtocolHMGWriteBack is HMG's write-back ablation variant.
	ProtocolHMGWriteBack
	// ProtocolRemoteBank is the paper's design alternative (a): the L2s
	// form a NUCA-style shared cache whose remote banks serve every remote
	// access — no boundary synchronization, no requester-side caching.
	ProtocolRemoteBank
)

func (p Protocol) String() string {
	switch p {
	case ProtocolBaseline:
		return "Baseline"
	case ProtocolCPElide:
		return "CPElide"
	case ProtocolHMG:
		return "HMG"
	case ProtocolHMGWriteBack:
		return "HMG-WB"
	case ProtocolRemoteBank:
		return "RemoteBank"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Options tunes a run.
type Options struct {
	Protocol Protocol

	// NoRangeInfo degrades annotations from hipSetAccessModeRange to
	// hipSetAccessMode: access modes are still known but each assigned
	// chiplet conservatively declares whole-structure ranges.
	NoRangeInfo bool

	// CPElideRangeOps enables the fine-grained hardware range-flush
	// extension (Section VI).
	CPElideRangeOps bool
	// CPElideTableEntries overrides the Chiplet Coherence Table capacity.
	CPElideTableEntries int

	// HMGDirLinesPerEntry overrides the directory granularity (default 4
	// lines per entry; 1 for the precision ablation).
	HMGDirLinesPerEntry int
	// HMGDirEntries overrides the per-chiplet directory capacity.
	HMGDirEntries int

	// DriverManaged moves CPElide's table to the GPU driver (the Section
	// VI alternative): identical decisions, but every kernel launch pays a
	// host round trip for the CP to report scheduling information, which
	// cannot be hidden by the on-device launch pipeline.
	DriverManaged bool

	// Placement selects the NUMA page placement policy (default first
	// touch, as in the paper).
	Placement cp.PagePlacement

	// InferAnnotations derives declared ranges from a profiling pass
	// (record-and-replay automation) instead of static annotations.
	InferAnnotations bool

	// Scheduler selects the local CPs' WG-to-CU assignment.
	Scheduler kernels.CUSchedule

	// SyncLatencySets serializes N sets of every kernel boundary's
	// acquire/release latency instead of one — the Section VI methodology
	// for conservatively mimicking 8-chiplet (N=2) and 16-chiplet (N=4)
	// synchronization overhead on a 4-chiplet simulation. Cache contents
	// are untouched; only the exposed latency scales.
	SyncLatencySets int

	// Trace, when non-nil, records the run's timeline into the recorder:
	// kernel spans per stream, flush/invalidate operations per chiplet with
	// line counts, per-launch synchronization exposure, inter-chiplet
	// transfer volumes, and (under CPElide) the elision audit log. Tracing
	// is observational only — it changes no simulation counter.
	Trace *trace.Recorder

	// PerKernelStats populates Report.PerKernel with a counter-sheet delta
	// per dynamic kernel (plus a final end-of-program entry).
	PerKernelStats bool

	// Faults, when non-nil and enabled, injects deterministic seed-driven
	// faults (dropped/delayed acks, link-degradation windows, coherence-table
	// parity errors) and arms the CP watchdog's retry/degradation machinery.
	// A nil or disabled config runs byte-identically to a build without the
	// fault subsystem.
	Faults *FaultConfig

	// Oracle, when non-nil, attaches the golden-model consistency checker
	// (build one with NewOracle): it observes every boundary's executed
	// synchronization plan and independently verifies, from the memory-model
	// rules alone, that no load could observe a stale value. Observational
	// only — no simulation counter changes. Oracles are single-use; query
	// Oracle.Err / Oracle.Summary after the run. Incompatible with
	// NoRangeInfo (whole-structure write declarations make the last writer
	// ambiguous); such runs return an error.
	Oracle *Oracle

	// Mutate deliberately weakens the command processor's synchronization
	// plans before execution — mutation testing for the oracle and the
	// runtime staleness checker. MutateNone for real runs.
	Mutate Mutation

	// Deprecated: ignored; there is no phase profiler.
	Profiler any

	// Deprecated: ignored; there is one calendar.
	Calendar event.CalendarKind
}

// Mutation selects a deliberate CP weakening for mutation testing.
type Mutation int

const (
	// MutateNone runs the protocol's plans unmodified.
	MutateNone Mutation = iota
	// MutateDropAcquire removes every acquire (invalidate) operation.
	MutateDropAcquire
	// MutateDropRelease removes every release (flush) operation.
	MutateDropRelease
	// MutateWrongChiplet retargets every operation to the next chiplet,
	// modeling a CP that syncs, but syncs the wrong caches.
	MutateWrongChiplet
)

func (m Mutation) String() string {
	switch m {
	case MutateNone:
		return "none"
	case MutateDropAcquire:
		return "drop-acquire"
	case MutateDropRelease:
		return "drop-release"
	case MutateWrongChiplet:
		return "wrong-chiplet"
	}
	return fmt.Sprintf("Mutation(%d)", int(m))
}

// ParseMutation parses the cmd/crosscheck -mutate syntax.
func ParseMutation(s string) (Mutation, error) {
	switch s {
	case "", "none":
		return MutateNone, nil
	case "drop-acquire":
		return MutateDropAcquire, nil
	case "drop-release":
		return MutateDropRelease, nil
	case "wrong-chiplet":
		return MutateWrongChiplet, nil
	}
	return MutateNone, fmt.Errorf("cpelide: unknown mutation %q (want drop-acquire, drop-release or wrong-chiplet)", s)
}

// NewOracle returns a consistency oracle for checking a run under the given
// protocol: Baseline and CPElide get the boundary-synchronization rules;
// HMG, HMG-WB and RemoteBank keep their L2s hardware-coherent, so their
// oracle only journals the sync footprint for cross-protocol comparison.
func NewOracle(p Protocol) *Oracle {
	switch p {
	case ProtocolBaseline, ProtocolCPElide:
		return oracle.New(oracle.BoundarySync)
	default:
		return oracle.New(oracle.HardwareCoherent)
	}
}

// Report is the outcome of one run.
type Report struct {
	Workload string
	Protocol string
	Chiplets int

	// Cycles is total execution time in GPU core cycles.
	Cycles uint64
	// Sheet holds every raw counter.
	Sheet *Sheet
	// Energy is the memory-subsystem energy breakdown.
	Energy EnergyBreakdown
	// StaleReads counts functional coherence violations (must be zero).
	StaleReads uint64
	// Kernels is the number of dynamic kernels executed.
	Kernels uint64
	// Accesses is the number of simulated line-granularity accesses.
	Accesses uint64

	// PerKernel is the per-dynamic-kernel breakdown (Options.PerKernelStats
	// only): one entry per launch in execution order, plus a final
	// "(finalize)" entry holding end-of-program activity. Merging every
	// entry's Sheet reconstructs the run-total Sheet exactly (sums for
	// additive counters, maxima for peak counters).
	PerKernel []KernelStats

	// KernelDur and SyncStall are latency histograms over all dynamic
	// kernels: total kernel duration and exposed synchronization stall,
	// both in core cycles.
	KernelDur *Histogram
	SyncStall *Histogram

	// Faults tallies the injected faults and watchdog reactions when
	// Options.Faults was enabled (nil otherwise).
	Faults *FaultCounters `json:",omitempty"`

	// ImageHash digests the final memory image (per-line latest and
	// committed versions). Identical workloads must produce identical
	// hashes under every correct protocol; the crosscheck campaign compares
	// them across Baseline/CPElide/HMG/HMG-WB.
	ImageHash uint64

	// Oracle is the consistency oracle's digest when Options.Oracle was
	// attached (nil otherwise).
	Oracle *OracleSummary `json:",omitempty"`
}

// CheckConsistency is the runtime consistency checker's verdict: it returns
// an error if the run observed any stale read — a load that saw a version
// older than the newest committed write, meaning a required synchronization
// was elided or lost. It must return nil under every fault schedule; a
// failure is a correctness bug in the protocol or the degradation machinery,
// never an acceptable outcome of injected faults.
func (r *Report) CheckConsistency() error {
	if r.StaleReads != 0 {
		return fmt.Errorf("cpelide: consistency violated: %d stale read(s) observed (workload %s, protocol %s)",
			r.StaleReads, r.Workload, r.Protocol)
	}
	return nil
}

// KernelStats is one dynamic kernel's slice of the run.
type KernelStats struct {
	// Kernel is the static kernel name ("(finalize)" for the trailing
	// end-of-program entry).
	Kernel string `json:"kernel"`
	// Inst is the dynamic kernel index within its stream (-1 for finalize).
	Inst   int `json:"inst"`
	Stream int `json:"stream"`
	// Start and End bound the kernel's span in core cycles.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Cycles is the kernel's duration including exposed synchronization;
	// SyncCycles is the exposed synchronization portion.
	Cycles     uint64 `json:"cycles"`
	SyncCycles uint64 `json:"sync_cycles"`
	// Sheet is the counter delta attributed to this kernel.
	Sheet *Sheet `json:"sheet"`
}

// Flits returns the run's interconnect traffic by Figure 10's classes.
func (r *Report) Flits() (l1l2, l2l3, remote uint64) {
	return r.Sheet.Get(stats.FlitsL1L2), r.Sheet.Get(stats.FlitsL2L3), r.Sheet.Get(stats.FlitsRemote)
}

// TotalFlits returns the run's total interconnect traffic.
func (r *Report) TotalFlits() uint64 {
	a, b, c := r.Flits()
	return a + b + c
}

// EnergyRatio returns r's total memory-subsystem energy relative to base's
// (1.0 = equal; lower is better).
func EnergyRatio(r, base *Report) float64 { return energy.Ratio(r.Energy, base.Energy) }

// Speedup returns base.Cycles / r.Cycles.
func (r *Report) Speedup(base *Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Run executes workload w on cfg under the selected protocol. The workload
// runs as a single stream across all chiplets, like the paper's
// single-stream evaluation.
func Run(cfg Config, w *Workload, opt Options) (*Report, error) {
	return RunContext(context.Background(), cfg, w, opt)
}

// RunContext is Run with cancellation: the command processor polls ctx at
// every kernel boundary and abandons the simulation once it is canceled
// (the in-flight kernel completes first — the simulated GPU has no
// preemption). A canceled run returns a nil Report and an error wrapping
// ctx's error.
func RunContext(ctx context.Context, cfg Config, w *Workload, opt Options) (*Report, error) {
	return RunStreamsContext(ctx, cfg, []StreamSpec{{Workload: w}}, opt)
}

// RunStreams executes multiple concurrent streams (Section VI's
// multi-stream study). Each stream's workload must use disjoint
// allocations.
func RunStreams(cfg Config, specs []StreamSpec, opt Options) (*Report, error) {
	return RunStreamsContext(context.Background(), cfg, specs, opt)
}

// RunStreamsContext is RunStreams with kernel-boundary cancellation; see
// RunContext.
func RunStreamsContext(ctx context.Context, cfg Config, specs []StreamSpec, opt Options) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cpelide: no streams")
	}
	bounds := mem.Range{Lo: HeapBase, Hi: HeapBase}
	names := ""
	var seed uint64
	for i, s := range specs {
		if s.Workload == nil {
			return nil, fmt.Errorf("cpelide: stream %d has no workload", i)
		}
		bounds = bounds.Union(s.Workload.Bounds())
		if i > 0 {
			names += "+"
		}
		names += s.Workload.Name
		seed ^= s.Workload.Seed
	}
	if err := checkFootprint(bounds); err != nil {
		return nil, err
	}

	sheet := stats.New()
	m, err := machine.Acquire(cfg, bounds, sheet)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	m.Trace = opt.Trace
	var injector *faults.Injector
	if opt.Faults.Enabled() {
		injector = faults.NewInjector(*opt.Faults, sheet, opt.Trace)
		m.SetFaults(injector)
	}
	var proto coherence.Protocol
	switch opt.Protocol {
	case ProtocolBaseline:
		proto = coherence.NewBaseline(m)
	case ProtocolCPElide:
		p, err := core.NewWithOptions(m, core.Options{
			RangeOps:     opt.CPElideRangeOps,
			TableEntries: opt.CPElideTableEntries,
		})
		if err != nil {
			return nil, err
		}
		proto = p
	case ProtocolHMG, ProtocolHMGWriteBack:
		p, err := hmg.New(m, hmg.Options{
			WriteBack:     opt.Protocol == ProtocolHMGWriteBack,
			DirEntries:    opt.HMGDirEntries,
			LinesPerEntry: opt.HMGDirLinesPerEntry,
		})
		if err != nil {
			return nil, err
		}
		proto = p
	case ProtocolRemoteBank:
		proto = coherence.NewRemoteBank(m)
	default:
		return nil, fmt.Errorf("cpelide: unknown protocol %v", opt.Protocol)
	}
	if opt.DriverManaged {
		proto = &driverManagedProtocol{Protocol: proto, cycles: cfg.DriverRoundTripCycles()}
	}
	if opt.SyncLatencySets > 1 {
		proto = &scaledSyncProtocol{Protocol: proto, sets: opt.SyncLatencySets}
	}
	if opt.Mutate != MutateNone {
		// Outermost wrapper: observers (and the machine) see the weakened
		// plan, exactly as a buggy CP would have issued it.
		proto = &mutatedProtocol{Protocol: proto, kind: opt.Mutate, chiplets: cfg.NumChiplets}
	}

	x := gpu.New(m, proto, seed)
	x.Sched = opt.Scheduler
	if opt.Oracle != nil {
		if opt.NoRangeInfo {
			return nil, fmt.Errorf("cpelide: the oracle requires range-precise annotations (NoRangeInfo declares whole-structure writes on every chiplet, making the last writer ambiguous)")
		}
		if err := opt.Oracle.Bind(cfg.NumChiplets, cfg.LineSize, m.Pages.HomeIfPlaced, opt.Trace); err != nil {
			return nil, err
		}
		x.Obs = opt.Oracle
	}
	runner, err := cp.NewRunner(x, specs, cp.RunnerConfig{
		RangeInfo:        !opt.NoRangeInfo,
		Placement:        opt.Placement,
		InferAnnotations: opt.InferAnnotations,
		PerKernel:        opt.PerKernelStats,
		Ctx:              ctx,
	})
	if err != nil {
		return nil, err
	}
	cycles, err := runner.Run()
	if err != nil {
		return nil, fmt.Errorf("cpelide: simulation failed: %w", err)
	}
	if runner.Canceled() {
		return nil, fmt.Errorf("cpelide: run canceled after %d dynamic kernels: %w",
			len(runner.Records), ctx.Err())
	}

	rep := &Report{
		Workload:   names,
		Protocol:   proto.Name(),
		Chiplets:   cfg.NumChiplets,
		Cycles:     cycles,
		Sheet:      sheet,
		Energy:     energy.FromSheet(sheet),
		StaleReads: m.Mem.StaleReads(),
		Kernels:    sheet.Get(stats.KernelsLaunched),
		KernelDur:  stats.NewHistogram("kernel duration (cycles)"),
		SyncStall:  stats.NewHistogram("sync stall (cycles)"),
	}
	rep.ImageHash = m.Mem.ImageHash()
	if opt.Oracle != nil {
		rep.Oracle = opt.Oracle.Summary()
	}
	if injector != nil {
		c := injector.Counters()
		rep.Faults = &c
	}
	for _, rec := range runner.Records {
		rep.Accesses += rec.Result.Accesses
		rep.KernelDur.Observe(rec.Result.Cycles)
		rep.SyncStall.Observe(rec.Result.SyncCycles)
	}
	if opt.PerKernelStats {
		rep.PerKernel = make([]KernelStats, 0, len(runner.Records)+1)
		for _, rec := range runner.Records {
			rep.PerKernel = append(rep.PerKernel, KernelStats{
				Kernel:     rec.Launch.Kernel.Name,
				Inst:       rec.Launch.Inst,
				Stream:     rec.Launch.Stream,
				Start:      uint64(rec.Start),
				End:        uint64(rec.End),
				Cycles:     rec.Result.Cycles,
				SyncCycles: rec.Result.SyncCycles,
				Sheet:      rec.Delta,
			})
		}
		rep.PerKernel = append(rep.PerKernel, KernelStats{
			Kernel: "(finalize)",
			Inst:   -1,
			Start:  uint64(cycles),
			End:    uint64(cycles),
			Sheet:  runner.FinalDelta,
		})
	}
	return rep, nil
}

// scaledSyncProtocol serializes N copies of every launch plan's
// synchronization latency: the paper's conservative methodology for
// projecting 8- and 16-chiplet overheads from a smaller simulation
// (Section VI). The operations themselves run once; only their exposed
// latency repeats, which overestimates larger systems (real ones would
// overlap the extra chiplets' operations).
type scaledSyncProtocol struct {
	coherence.Protocol
	sets int
}

func (p *scaledSyncProtocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	plan := p.Protocol.PreLaunch(l)
	plan.LatencyFactor = p.sets
	return plan
}

// DegradeChiplet forwards watchdog degradation through the wrapper so a
// wrapped stateful protocol still abandons its beliefs.
func (p *scaledSyncProtocol) DegradeChiplet(c int) { degradeChiplet(p.Protocol, c) }

// ConservativeReset forwards mid-plan interruption resets likewise.
func (p *scaledSyncProtocol) ConservativeReset() { conservativeReset(p.Protocol) }

// driverManagedProtocol charges the host round trip the driver-managed
// alternative pays on every launch: the CP must ship scheduling decisions
// to the driver and wait for its synchronization verdict (Section VI;
// prior work shows the added latency hurts, which is why CPElide lives in
// the global CP).
type driverManagedProtocol struct {
	coherence.Protocol
	cycles int
}

func (p *driverManagedProtocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	plan := p.Protocol.PreLaunch(l)
	plan.HostRoundTripCycles += p.cycles
	return plan
}

// DegradeChiplet forwards watchdog degradation through the wrapper so a
// wrapped stateful protocol still abandons its beliefs.
func (p *driverManagedProtocol) DegradeChiplet(c int) { degradeChiplet(p.Protocol, c) }

// ConservativeReset forwards mid-plan interruption resets likewise.
func (p *driverManagedProtocol) ConservativeReset() { conservativeReset(p.Protocol) }

// mutatedProtocol weakens every synchronization plan the wrapped protocol
// produces — mutation testing for the consistency machinery. It wraps
// outermost so the executor, the machine, and any observer all see the
// weakened plan.
type mutatedProtocol struct {
	coherence.Protocol
	kind     Mutation
	chiplets int
}

func (p *mutatedProtocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	plan := p.Protocol.PreLaunch(l)
	plan.Ops = p.mutateOps(plan.Ops)
	return plan
}

func (p *mutatedProtocol) Finalize() coherence.SyncPlan {
	plan := p.Protocol.Finalize()
	plan.Ops = p.mutateOps(plan.Ops)
	return plan
}

func (p *mutatedProtocol) mutateOps(ops []coherence.SyncOp) []coherence.SyncOp {
	out := ops[:0]
	for _, op := range ops {
		switch p.kind {
		case MutateDropAcquire:
			if op.Kind == coherence.Acquire {
				continue
			}
		case MutateDropRelease:
			if op.Kind == coherence.Release {
				continue
			}
		case MutateWrongChiplet:
			op.Chiplet = (op.Chiplet + 1) % p.chiplets
		case MutateNone:
			// Pass-through; the op is kept as issued.
		}
		out = append(out, op)
	}
	return out
}

// DegradeChiplet forwards watchdog degradation through the wrapper so a
// wrapped stateful protocol still abandons its beliefs.
func (p *mutatedProtocol) DegradeChiplet(c int) { degradeChiplet(p.Protocol, c) }

// ConservativeReset forwards mid-plan interruption resets likewise.
func (p *mutatedProtocol) ConservativeReset() { conservativeReset(p.Protocol) }

func degradeChiplet(p coherence.Protocol, c int) {
	if d, ok := p.(coherence.Degradable); ok {
		d.DegradeChiplet(c)
	}
}

func conservativeReset(p coherence.Protocol) {
	if d, ok := p.(coherence.Degradable); ok {
		d.ConservativeReset()
	}
}

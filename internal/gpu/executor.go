// Package gpu executes kernel launches on the simulated machine: it runs a
// launch's synchronization plan, streams the kernel's memory accesses
// through the coherence protocol, and converts the outcome into kernel
// duration with a compute/memory-overlap timing model.
//
// Per chiplet, a kernel's duration is the largest of:
//
//   - the busiest CU's ALU time,
//   - the busiest CU's memory time (summed access latency divided by the
//     memory-level parallelism its wavefronts sustain), and
//   - bandwidth occupancy lower bounds for the chiplet's crossbar port and
//     HBM partition.
//
// A kernel's duration is the maximum over its assigned chiplets, plus the
// exposed synchronization time its launch plan required.
package gpu

import (
	"repro/internal/coherence"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Executor runs launches for one (machine, protocol) pair.
type Executor struct {
	M    *machine.Machine
	P    coherence.Protocol
	Seed uint64

	// Sched selects the local CPs' WG-to-CU assignment policy.
	Sched kernels.CUSchedule

	// Obs, when non-nil, observes every launch boundary and the finalize
	// boundary with the synchronization plan the executor is about to run.
	// The consistency oracle attaches here; the hook sits after protocol
	// plan construction and before plan execution, so observers see exactly
	// what the CP decided (including any mutation-testing weakening).
	Obs Observer

	// latency is per-CU scratch, reused across kernels to avoid
	// per-launch allocation. opCycles, l2bank0, and l3bank0 are per-chiplet
	// scratch reused the same way.
	latency  []uint64
	opCycles []int
	l2bank0  []uint64
	l3bank0  []uint64
}

// New builds an executor.
func New(m *machine.Machine, p coherence.Protocol, seed uint64) *Executor {
	cus := m.Cfg.CUsPerChiplet
	n := m.Cfg.NumChiplets
	return &Executor{
		M: m, P: p, Seed: seed,
		latency:  make([]uint64, cus),
		opCycles: make([]int, n),
		l2bank0:  make([]uint64, n),
		l3bank0:  make([]uint64, n),
	}
}

// KernelResult is the timing outcome of one launch.
type KernelResult struct {
	// Cycles is the kernel's total duration including exposed
	// synchronization and CP time.
	Cycles uint64
	// SyncCycles is the exposed synchronization portion.
	SyncCycles uint64
	// CPCycles is exposed command-processor processing time (zero when
	// hidden behind enqueue-ahead).
	CPCycles uint64
	// ComputeCycles and MemoryCycles are the dominant chiplet's components.
	ComputeCycles uint64
	MemoryCycles  uint64
	// Accesses is the number of line-granularity accesses simulated.
	Accesses uint64
}

// ExecutePlan performs a synchronization plan's cache operations and
// returns the exposed cycles (operations on different chiplets overlap; the
// slowest chiplet determines the exposure, plus CP messaging).
func (x *Executor) ExecutePlan(plan coherence.SyncPlan) uint64 {
	m := x.M
	cfg := &m.Cfg
	if len(plan.Ops) == 0 {
		if plan.HostRoundTripCycles > 0 {
			m.Sheet.Add(stats.SyncCycles, uint64(plan.HostRoundTripCycles))
		}
		m.Trace.Plan(0, uint64(plan.HostRoundTripCycles))
		return uint64(plan.HostRoundTripCycles)
	}
	perChiplet := x.opCycles
	for i := range perChiplet {
		perChiplet[i] = 0
	}
	for _, op := range plan.Ops {
		perChiplet[op.Chiplet] += x.executeOp(op)
	}
	exposed := 0
	for _, cy := range perChiplet {
		if cy > exposed {
			exposed = cy
		}
	}
	// Request to local CPs, acks back, then the launch-enable message.
	exposed += 2*cfg.CPUnicastLatency + cfg.CPBroadcastLatency
	if plan.LatencyFactor > 1 {
		exposed *= plan.LatencyFactor
	}
	// The per-kernel CP launch pipeline (packet processing, queue
	// scheduling — CPLatencyUS) runs concurrently with the maintenance
	// operations, so only the portion of the drain that outlasts it is
	// exposed to the kernel's start.
	exposed -= cfg.CPLatencyCycles()
	if exposed < 0 {
		exposed = 0
	}
	// Off-device (driver) latency cannot overlap the on-device pipeline.
	exposed += plan.HostRoundTripCycles
	m.Sheet.Add(stats.CPMessages, uint64(plan.Messages))
	m.Sheet.Add(stats.SyncCycles, uint64(exposed))
	m.Trace.Plan(len(plan.Ops), uint64(exposed))
	return uint64(exposed)
}

// executeOp performs one synchronization operation's cache operation and
// returns its cycles.
func (x *Executor) executeOp(op coherence.SyncOp) int {
	m := x.M
	var cy int
	switch {
	case op.Kind == coherence.Release && op.Ranges.Empty():
		_, cy = m.FlushL2(op.Chiplet)
	case op.Kind == coherence.Release:
		_, cy = m.FlushL2Ranges(op.Chiplet, op.Ranges)
	case op.Ranges.Empty():
		_, cy = m.InvalidateL2(op.Chiplet)
	default:
		_, cy = m.InvalidateL2Ranges(op.Chiplet, op.Ranges)
	}
	return cy
}

// RunKernel executes one launch: L1 boundary invalidation, the protocol's
// synchronization plan, then the kernel's accesses. exposeCP makes the
// plan's CP processing latency visible (first kernel of a stream; later
// kernels overlap it with predecessor execution via enqueue-ahead).
func (x *Executor) RunKernel(l *coherence.Launch, exposeCP bool) KernelResult {
	m := x.M
	cfg := &m.Cfg
	k := l.Kernel

	// Implicit L1 synchronization at every kernel boundary, all protocols.
	for _, c := range l.Chiplets {
		m.InvalidateL1s(c)
	}

	plan := x.P.PreLaunch(l)
	if x.Obs != nil {
		x.Obs.OnLaunch(l, plan)
	}
	var res KernelResult
	res.SyncCycles = x.ExecutePlan(plan)
	if exposeCP {
		res.CPCycles = uint64(plan.CPCycles)
	}
	m.Sheet.Inc(stats.KernelsLaunched)

	nparts := len(l.Chiplets)
	cus := cfg.CUsPerChiplet
	mlp := float64(cfg.BaseMLP) * k.MLP()
	l2bank0, l3bank0 := x.l2bank0, x.l3bank0
	for b := 0; b < cfg.NumChiplets; b++ {
		l2bank0[b] = m.L2BankBytes(b)
		l3bank0[b] = m.L3BankBytes(b)
	}
	var worst uint64
	for slot, c := range l.Chiplets {
		for i := range x.latency {
			x.latency[i] = 0
		}
		// Chiplet partitions are processed one after another, so deltas of
		// the global counters attribute traffic to this partition.
		port0 := m.Fabric.PortBytes(c)
		igpu0 := m.Fabric.InterGPUBytes()
		dram0 := totalDRAM(m)
		l2acc0 := m.Sheet.Get(stats.L2Accesses)
		l2miss0 := m.Sheet.Get(stats.L2Misses)
		l2l3f0 := m.Sheet.Get(stats.FlitsL2L3)

		access := func(a kernels.Access) {
			r := x.P.Access(c, a.CU, a.Line, a.Write, a.Atomic)
			x.latency[a.CU] += uint64(r.Cycles)
			res.Accesses++
		}
		kernels.GenerateScheduled(k, l.Inst, x.Seed, slot, nparts, cus, cfg.LineSize, x.Sched, access)

		// Compute per CU: WGs round-robin over CUs.
		wgLo, wgHi := kernels.Partition(k.WGs, nparts, slot)
		myWGs := wgHi - wgLo
		if myWGs <= 0 {
			continue
		}
		m.Sheet.Add(stats.LDSAccesses, uint64(myWGs)*uint64(k.LDSBytesPerWG/4))
		base := uint64(myWGs / cus)
		rem := myWGs % cus
		var chipletTime, cTime, mTime uint64
		for cu := 0; cu < cus && cu < myWGs; cu++ {
			wgs := base
			if cu < rem {
				wgs++
			}
			comp := wgs * uint64(k.ComputePerWG)
			memt := uint64(float64(x.latency[cu]) / mlp)
			t := comp
			if memt > t {
				t = memt
			}
			if t > chipletTime {
				chipletTime, cTime, mTime = t, comp, memt
			}
		}

		// Bandwidth occupancy floors: the partition can finish no faster
		// than its traffic drains through each resource it used.
		ls := uint64(cfg.LineSize)
		floor := func(bytes uint64, bw float64) uint64 {
			if bytes == 0 || bw <= 0 {
				return 0
			}
			return uint64(float64(bytes) / bw)
		}
		// L2 occupancy: every access streams a line through the CU-side
		// pipes; a miss additionally occupies the arrays for the fill
		// (half-line effective cost — fills use a dedicated port).
		l2bytes := (m.Sheet.Get(stats.L2Accesses)-l2acc0)*ls +
			(m.Sheet.Get(stats.L2Misses)-l2miss0)*ls/2
		occ := floor(l2bytes, cfg.L2BWBytesCy)
		if t := floor((m.Sheet.Get(stats.FlitsL2L3)-l2l3f0)*uint64(cfg.FlitSize),
			cfg.L3BWBytesCy); t > occ {
			occ = t
		}
		if t := floor(m.Fabric.PortBytes(c)-port0,
			cfg.LinkBytesPerCycle()/float64(cfg.NumChiplets)); t > occ {
			occ = t
		}
		if cfg.NumGPUs > 1 {
			if t := floor(m.Fabric.InterGPUBytes()-igpu0,
				cfg.InterGPUBytesPerCycle()); t > occ {
				occ = t
			}
		}
		if t := floor(totalDRAM(m)-dram0,
			cfg.DRAMBWBytesCy/float64(nparts)); t > occ {
			occ = t
		}
		if occ > chipletTime {
			chipletTime, mTime = occ, occ
		}

		if chipletTime > worst {
			worst = chipletTime
			res.ComputeCycles = cTime
			res.MemoryCycles = mTime
		}
	}

	// Shared-bank serialization: the kernel can finish no faster than its
	// busiest L2 or L3 bank drains the traffic all partitions sent it —
	// the hot-bank bottleneck per-partition floors cannot see.
	for b := 0; b < cfg.NumChiplets; b++ {
		if t := uint64(float64(m.L2BankBytes(b)-l2bank0[b]) / cfg.L2BWBytesCy); t > worst {
			worst = t
			res.MemoryCycles = t
		}
		if t := uint64(float64(m.L3BankBytes(b)-l3bank0[b]) / cfg.L3BWBytesCy); t > worst {
			worst = t
			res.MemoryCycles = t
		}
	}

	res.Cycles = worst + res.SyncCycles + res.CPCycles
	m.Sheet.Add(stats.ComputeCycles, res.ComputeCycles)
	m.Sheet.Add(stats.MemoryCycles, res.MemoryCycles)
	return res
}

// totalDRAM sums HBM traffic across all partitions.
func totalDRAM(m *machine.Machine) uint64 {
	var n uint64
	for c := 0; c < m.Cfg.NumChiplets; c++ {
		n += m.Fabric.DRAMBytes(c)
	}
	return n
}

// Finalize runs the protocol's end-of-program releases and returns the
// exposed cycles.
func (x *Executor) Finalize() uint64 {
	plan := x.P.Finalize()
	if x.Obs != nil {
		x.Obs.OnFinalize(plan)
	}
	cy := x.ExecutePlan(plan)
	x.M.Sheet.Set(stats.StaleReads, x.M.Mem.StaleReads())
	return cy
}

// Observer watches kernel and finalize boundaries. OnLaunch fires once per
// launch with the plan the protocol produced, before the executor runs it;
// OnFinalize fires once with the end-of-program release plan.
type Observer interface {
	OnLaunch(l *coherence.Launch, plan coherence.SyncPlan)
	OnFinalize(plan coherence.SyncPlan)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/energy"
	"repro/internal/event"
	"repro/internal/farm"
	"repro/internal/gpu"
	"repro/internal/hmg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file is the traced run's simulator: the same assembly as
// cpelide.RunStreamsContext (machine -> protocol -> executor -> runner ->
// report), done by hand so each layer's calls can be timed from outside the
// program. TestTracedRunMatchesLibrary pins that its reports are
// byte-identical to the library's, so the layer numbers describe the
// program the end-to-end metrics time.

// Access calls are timed on a sample: a clock pair costs about as much as
// the call itself. The gap between samples is drawn from [32, 96) rather
// than fixed, so it cannot fall into step with a kernel's access stride.
const (
	minSampleGap  = 32
	sampleGapBits = 6 // gap = minSampleGap + a 6-bit draw: mean about 64
)

// maxSpans bounds the in-memory span log; later spans are counted only.
const maxSpans = 400_000

// span is one timed call into a layer. Parent is the index of the enclosing
// span in the tracer's log (-1 for a root); Lane is the worker it ran on.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Lane       int
}

// protoSums aggregates one protocol's per-run counters.
type protoSums struct {
	prelaunch               time.Duration
	boundaries              int
	calls, samples          uint64
	sampled                 time.Duration
	accesses                uint64
	l1Hits, l1Acc, l2Hits   uint64
	l2Acc, l3Acc, dramReads uint64
	issued, elided          uint64
	syncOps, syncLines      uint64
	kernels, delivered      uint64
}

// layerSums aggregates the traced simulations' layer times.
type layerSums struct {
	runs                                         int
	build, machine, protoNew, runner, run        time.Duration
	report, prelaunch, sync, exec, sampled, sims time.Duration
	samples, calls                               uint64
}

// tracer collects spans and layer totals from traced simulations; it is
// shared by concurrent simulations.
type tracer struct {
	epoch   time.Time
	clockNS float64 // cost of one time.Now pair, taken off every access sample

	mu        sync.Mutex
	spans     []span
	dropped   int
	lanes     []bool
	sums      layerSums
	protos    map[string]*protoSums
	probes    []probeRun // simulations kept for the after-the-fact probes
	probeSeen map[string]bool
}

// probeRun is what the probes need to replay one traced simulation's
// access generation, machine build and report encoding.
type probeRun struct {
	cfg      cpelide.Config
	bounds   mem.Range
	seed     uint64
	sched    kernels.CUSchedule
	launches []*coherence.Launch
	rep      *cpelide.Report
}

// maxProbeRuns bounds the simulations the probes replay.
const maxProbeRuns = 24

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), protos: map[string]*protoSums{}, probeSeen: map[string]bool{}}
	var pairs []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		pairs = append(pairs, float64(time.Since(t0)))
	}
	t.clockNS = median(pairs)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// lane claims the lowest free lane id for a simulation's spans.
func (t *tracer) lane() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

func (t *tracer) appendLocked(s span) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// simTrace is one traced simulation's private accumulator; it is merged
// into the tracer when the simulation ends, so the hot path takes no lock.
type simTrace struct {
	t     *tracer
	lane  int
	proto string
	spans []span // Parent indexes this slice until merged

	build, machine, protoNew, runner, run, report time.Duration
	prelaunch, sync, exec, sampled                time.Duration
	boundaries                                    int
	calls, samples, delivered                     uint64
	gap, rng                                      uint64 // calls to the next sample; its generator

	start     time.Duration
	syncOpen  bool
	syncStart time.Duration
	execOpen  bool
	execStart time.Duration
	runSpan   int
}

func (t *tracer) newSim() *simTrace { return &simTrace{t: t, lane: t.lane(), start: t.now()} }

func (st *simTrace) add(name string, start, end time.Duration, parent int) int {
	st.spans = append(st.spans, span{Name: name, Start: start, End: end, Parent: parent, Lane: st.lane})
	return len(st.spans) - 1
}

// timed runs fn as a child span of parent and returns its duration.
func (st *simTrace) timed(name string, parent int, fn func()) time.Duration {
	t0 := st.t.now()
	fn()
	t1 := st.t.now()
	st.add(name, t0, t1, parent)
	return t1 - t0
}

// closeSync ends the open synchronization span (OnLaunch to the launch's
// first memory access) at now.
func (st *simTrace) closeSync(now time.Duration) {
	if !st.syncOpen {
		return
	}
	st.syncOpen = false
	st.sync += now - st.syncStart
	st.add("gpu.sync", st.syncStart, now, st.runSpan)
}

// closeExec ends the open execution span (a launch's first memory access
// to the next boundary) at now.
func (st *simTrace) closeExec(now time.Duration) {
	if !st.execOpen {
		return
	}
	st.execOpen = false
	st.exec += now - st.execStart
	st.add("kernel.exec", st.execStart, now, st.runSpan)
}

// boundary closes the previous launch's spans at a PreLaunch or Finalize.
func (st *simTrace) boundary(now time.Duration) {
	st.closeExec(now)
	st.closeSync(now) // a launch without accesses leaves its sync span open
}

// OnLaunch implements gpu.Observer: the executor is about to run the plan.
func (st *simTrace) OnLaunch(*coherence.Launch, coherence.SyncPlan) {
	st.syncOpen, st.syncStart = true, st.t.now()
}

// OnFinalize implements gpu.Observer for the end-of-program release.
func (st *simTrace) OnFinalize(coherence.SyncPlan) {
	st.syncOpen, st.syncStart = true, st.t.now()
}

// timedProtocol times the protocol layer's two per-kernel entry points:
// PreLaunch (the CCT or directory decision) on every boundary, and Access
// (the per-access memory walk) on a sample of calls.
type timedProtocol struct {
	coherence.Protocol
	st   *simTrace
	name string // span name: <layer>.prelaunch
}

func (p *timedProtocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	st := p.st
	t0 := st.t.now()
	st.boundary(t0)
	plan := p.Protocol.PreLaunch(l)
	t1 := st.t.now()
	st.prelaunch += t1 - t0
	st.boundaries++
	st.add(p.name, t0, t1, st.runSpan)
	return plan
}

func (p *timedProtocol) Finalize() coherence.SyncPlan {
	st := p.st
	t0 := st.t.now()
	st.boundary(t0)
	plan := p.Protocol.Finalize()
	t1 := st.t.now()
	st.prelaunch += t1 - t0
	st.boundaries++
	st.add(p.name, t0, t1, st.runSpan)
	return plan
}

func (p *timedProtocol) Access(chiplet, cu int, line mem.Addr, write, atomic bool) coherence.AccessResult {
	st := p.st
	if st.syncOpen {
		now := st.t.now()
		st.closeSync(now)
		st.execOpen, st.execStart = true, now
	}
	st.calls++
	if st.gap > 0 {
		st.gap--
		return p.Protocol.Access(chiplet, cu, line, write, atomic)
	}
	st.rng = st.rng*6364136223846793005 + 1442695040888963407
	st.gap = minSampleGap + st.rng>>(64-sampleGapBits)
	t0 := time.Now()
	r := p.Protocol.Access(chiplet, cu, line, write, atomic)
	st.sampled += time.Since(t0)
	st.samples++
	return r
}

// layerOf names the module whose PreLaunch a protocol runs.
func layerOf(p cpelide.Protocol) string {
	switch p {
	case cpelide.ProtocolCPElide:
		return "core"
	case cpelide.ProtocolHMG, cpelide.ProtocolHMGWriteBack:
		return "hmg"
	default:
		return "coherence"
	}
}

// unsupported rejects the options the hand assembly does not reproduce;
// none of the benchmark's workloads sets them.
func unsupported(opt cpelide.Options) error {
	if opt.Faults.Enabled() || opt.DriverManaged || opt.SyncLatencySets > 1 || opt.Mutate != cpelide.MutateNone ||
		opt.Oracle != nil || opt.Profiler != nil || opt.Trace != nil || opt.PerKernelStats {
		return fmt.Errorf("traced run: options beyond protocol, placement, ranges and scheduler are not supported")
	}
	return nil
}

// runJob is the traced counterpart of the farm's job execution: build the
// workload, then simulate it.
func (t *tracer) runJob(j farm.Job) (*cpelide.Report, error) {
	if j.Workload == "" || len(j.Streams) > 0 || j.Fusion != nil {
		return nil, fmt.Errorf("traced run: only single-workload jobs are supported, got %s", j.Name())
	}
	st := t.newSim()
	var w *kernels.Workload
	var err error
	st.build = st.timed("workloads.build", -1, func() {
		w, err = workloads.Build(j.Workload, cpelide.NewAllocator(j.Config.PageSize), j.Params)
	})
	if err != nil {
		t.release(st)
		return nil, err
	}
	return t.simulate(st, j.Config, []cpelide.StreamSpec{{Workload: w}}, j.Options)
}

// runStreams is the traced counterpart of cpelide.RunStreams.
func (t *tracer) runStreams(cfg cpelide.Config, specs []cpelide.StreamSpec, opt cpelide.Options) (*cpelide.Report, error) {
	return t.simulate(t.newSim(), cfg, specs, opt)
}

func (t *tracer) release(st *simTrace) {
	t.mu.Lock()
	t.lanes[st.lane] = false
	t.mu.Unlock()
}

// simulate mirrors cpelide.RunStreamsContext for the supported options,
// timing each layer, then merges the simulation's spans and sums.
func (t *tracer) simulate(st *simTrace, cfg cpelide.Config, specs []cpelide.StreamSpec, opt cpelide.Options) (*cpelide.Report, error) {
	defer t.release(st)
	if err := unsupported(opt); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("traced run: no streams")
	}
	bounds := mem.Range{Lo: cpelide.HeapBase, Hi: cpelide.HeapBase}
	names := ""
	var seed uint64
	for i, s := range specs {
		if s.Workload == nil {
			return nil, fmt.Errorf("traced run: stream %d has no workload", i)
		}
		bounds = bounds.Union(s.Workload.Bounds())
		if i > 0 {
			names += "+"
		}
		names += s.Workload.Name
		seed ^= s.Workload.Seed
	}
	st.proto = opt.Protocol.String()
	sheet := stats.New()
	var m *machine.Machine
	var err error
	st.machine = st.timed("machine.new", -1, func() { m, err = machine.New(cfg, bounds, sheet) })
	if err != nil {
		return nil, err
	}
	var proto coherence.Protocol
	st.protoNew = st.timed(layerOf(opt.Protocol)+".new", -1, func() {
		switch opt.Protocol {
		case cpelide.ProtocolBaseline:
			proto = coherence.NewBaseline(m)
		case cpelide.ProtocolCPElide:
			proto, err = core.NewWithOptions(m, core.Options{
				RangeOps:     opt.CPElideRangeOps,
				TableEntries: opt.CPElideTableEntries,
			})
		case cpelide.ProtocolHMG, cpelide.ProtocolHMGWriteBack:
			proto, err = hmg.New(m, hmg.Options{
				WriteBack:     opt.Protocol == cpelide.ProtocolHMGWriteBack,
				DirEntries:    opt.HMGDirEntries,
				LinesPerEntry: opt.HMGDirLinesPerEntry,
			})
		case cpelide.ProtocolRemoteBank:
			proto = coherence.NewRemoteBank(m)
		default:
			err = fmt.Errorf("traced run: unknown protocol %v", opt.Protocol)
		}
	})
	if err != nil {
		return nil, err
	}
	var x *gpu.Executor
	var runner *cp.Runner
	st.runner = st.timed("cp.new_runner", -1, func() {
		x = gpu.New(m, &timedProtocol{Protocol: proto, st: st, name: layerOf(opt.Protocol) + ".prelaunch"}, seed)
		x.Sched = opt.Scheduler
		x.Obs = st
		runner, err = cp.NewRunner(x, specs, cp.RunnerConfig{
			RangeInfo:        !opt.NoRangeInfo,
			Placement:        opt.Placement,
			InferAnnotations: opt.InferAnnotations,
			Calendar:         opt.Calendar,
		})
	})
	if err != nil {
		return nil, err
	}
	deliver := runner.Eng.OnDeliver
	runner.Eng.OnDeliver = func(now event.Time) {
		st.delivered++
		deliver(now)
	}

	runStart := t.now()
	st.runSpan = st.add("cp.run", runStart, 0, -1)
	cycles, err := runner.Run()
	runEnd := t.now()
	st.boundary(runEnd) // the finalize boundary's plan ran last
	st.spans[st.runSpan].End = runEnd
	st.run = runEnd - runStart
	if err != nil {
		return nil, fmt.Errorf("traced run: simulation failed: %w", err)
	}

	var rep *cpelide.Report
	st.report = st.timed("report.build", -1, func() {
		rep = &cpelide.Report{
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
		for _, rec := range runner.Records {
			rep.Accesses += rec.Result.Accesses
			rep.KernelDur.Observe(rec.Result.Cycles)
			rep.SyncStall.Observe(rec.Result.SyncCycles)
		}
	})
	simEnd := t.now()

	var launches []*coherence.Launch
	for _, rec := range runner.Records {
		launches = append(launches, rec.Launch)
	}
	t.merge(st, simEnd, rep, probeRun{cfg: cfg, bounds: bounds, seed: seed, sched: opt.Scheduler, launches: launches, rep: rep})
	return rep, nil
}

// merge folds one finished simulation into the tracer.
func (t *tracer) merge(st *simTrace, simEnd time.Duration, rep *cpelide.Report, pr probeRun) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.appendLocked(span{Name: "sim " + rep.Workload + "/" + rep.Protocol, Start: st.start, End: simEnd, Parent: -1, Lane: st.lane})
	base := len(t.spans)
	for _, s := range st.spans {
		if s.Parent >= 0 {
			s.Parent += base
		} else {
			s.Parent = root
		}
		t.appendLocked(s)
	}

	s := &t.sums
	s.runs++
	s.build += st.build
	s.machine += st.machine
	s.protoNew += st.protoNew
	s.runner += st.runner
	s.run += st.run
	s.report += st.report
	s.prelaunch += st.prelaunch
	s.sync += st.sync
	s.exec += st.exec
	s.sampled += st.sampled
	s.samples += st.samples
	s.calls += st.calls
	s.sims += simEnd - st.start

	p := t.protos[st.proto]
	if p == nil {
		p = &protoSums{}
		t.protos[st.proto] = p
	}
	sh := rep.Sheet
	p.prelaunch += st.prelaunch
	p.boundaries += st.boundaries
	p.calls += st.calls
	p.samples += st.samples
	p.sampled += st.sampled
	p.accesses += rep.Accesses
	p.l1Hits += sh.Get(stats.L1Hits)
	p.l1Acc += sh.Get(stats.L1Accesses)
	p.l2Hits += sh.Get(stats.L2Hits)
	p.l2Acc += sh.Get(stats.L2Accesses)
	p.l3Acc += sh.Get(stats.L3Accesses)
	p.dramReads += sh.Get(stats.DRAMReads)
	p.issued += sh.Get(stats.AcquiresIssued) + sh.Get(stats.ReleasesIssued)
	p.elided += sh.Get(stats.AcquiresElided) + sh.Get(stats.ReleasesElided)
	p.syncOps += sh.Get(stats.L2FlushOps) + sh.Get(stats.L2InvOps)
	p.syncLines += sh.Get(stats.L2Invalidates)
	p.kernels += rep.Kernels
	p.delivered += st.delivered

	key := fmt.Sprintf("%s/%d/%s", rep.Workload, pr.cfg.NumChiplets, rep.Protocol)
	if len(t.probes) < maxProbeRuns && !t.probeSeen[key] {
		t.probeSeen[key] = true
		t.probes = append(t.probes, pr)
	}
}

// probeResults replays kept simulations outside any timed repetition:
// access generation with a no-op sink, machine construction under a heap
// counter, and report encoding in the server's response format.
type probeResults struct {
	genNSPerAccess, machineAllocMB, encodeMS float64
}

func (t *tracer) probe() probeResults {
	var res probeResults
	if len(t.probes) == 0 {
		return res
	}
	var genNS time.Duration
	var genAccesses uint64
	noop := func(kernels.Access) { genAccesses++ }
	var allocMB, encodeMS []float64
	for _, pr := range t.probes {
		cfg := pr.cfg
		t0 := time.Now()
		for _, l := range pr.launches {
			for slot := range l.Chiplets {
				kernels.GenerateScheduled(l.Kernel, l.Inst, pr.seed, slot, len(l.Chiplets),
					cfg.CUsPerChiplet, cfg.LineSize, pr.sched, noop)
			}
		}
		genNS += time.Since(t0)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := machine.New(cfg, pr.bounds, stats.New())
		runtime.ReadMemStats(&after)
		if err == nil {
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}

		t1 := time.Now()
		enc := json.NewEncoder(discard{})
		enc.SetIndent("", "  ")
		if enc.Encode(pr.rep) == nil {
			encodeMS = append(encodeMS, float64(time.Since(t1))/1e6)
		}
	}
	res.genNSPerAccess = ratio(float64(genNS), float64(genAccesses))
	res.machineAllocMB = median(allocMB)
	res.encodeMS = median(encodeMS)
	return res
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// accessNS is the sampled per-call time of the memory walk, net of the
// clock pair's own cost.
func (t *tracer) accessNS(sampled time.Duration, samples uint64) float64 {
	if samples == 0 {
		return 0
	}
	return max(float64(sampled)/float64(samples)-t.clockNS, 0)
}

// simLayers records the simulator-layer metrics of every traced run and
// returns the probe results for the caller's accounting.
func (t *tracer) simLayers(b *bench, jobSets int) probeResults {
	pr := t.probe()
	s := t.sums
	runs := float64(max(s.runs, 1))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / runs }
	L := b.layers
	L["workloads.build_ms"] = metric{ms(s.build), "ms"}
	L["machine.new_ms"] = metric{ms(s.machine), "ms"}
	L["machine.alloc_mb"] = metric{pr.machineAllocMB, "MB"}
	L["cp.new_runner_ms"] = metric{ms(s.runner), "ms"}
	L["gpu.sync_ms"] = metric{ms(s.sync), "ms"}
	L["report.encode_ms"] = metric{pr.encodeMS, "ms"}
	L["kernels.generate_ns_per_access"] = metric{pr.genNSPerAccess, "ns"}
	L["mem.access_calls"] = metric{float64(s.calls) / float64(max(jobSets, 1)), "count"}
	L["mem.access_ns"] = metric{t.accessNS(s.sampled, s.samples), "ns"}

	var kernels, delivered, syncOps, syncLines float64
	for _, p := range t.protos {
		kernels += float64(p.kernels)
		delivered += float64(p.delivered)
		syncOps += float64(p.syncOps)
		syncLines += float64(p.syncLines)
	}
	L["cp.kernels"] = metric{kernels / runs, "count"}
	L["event.delivered"] = metric{delivered / runs, "count"}
	L["gpu.sync_ops"] = metric{syncOps / runs, "count"}
	L["gpu.sync_lines"] = metric{syncLines / runs, "count"}

	for _, name := range []string{"Baseline", "CPElide", "HMG"} {
		p := t.protos[name]
		if p == nil {
			p = &protoSums{}
		}
		sfx := "." + protoSuffix[name]
		acc := float64(p.accesses)
		L["mem.access_ns"+sfx] = metric{t.accessNS(p.sampled, p.samples), "ns"}
		L["mem.l1_hit_ratio"+sfx] = metric{ratio(float64(p.l1Hits), float64(p.l1Acc)), "ratio"}
		L["mem.l2_hit_ratio"+sfx] = metric{ratio(float64(p.l2Hits), float64(p.l2Acc)), "ratio"}
		L["mem.l3_accesses_per_access"+sfx] = metric{ratio(float64(p.l3Acc), acc), "ratio"}
		L["mem.dram_reads_per_access"+sfx] = metric{ratio(float64(p.dramReads), acc), "ratio"}
	}
	for name, layer := range map[string]string{"Baseline": "coherence", "CPElide": "core", "HMG": "hmg"} {
		p := t.protos[name]
		if p == nil {
			p = &protoSums{}
		}
		L[layer+".prelaunch_us"] = metric{ratio(float64(p.prelaunch)/1e3, float64(p.boundaries)), "us"}
	}
	if p := t.protos["CPElide"]; p != nil {
		L["core.elided_ratio"] = metric{ratio(float64(p.elided), float64(p.issued+p.elided)), "ratio"}
	}
	t.mu.Lock()
	L["trace.spans"] = metric{float64(len(t.spans) + t.dropped), "count"}
	t.mu.Unlock()
	return pr
}

// protoSuffix names the per-protocol variants of the memory metrics.
var protoSuffix = map[string]string{"Baseline": "baseline", "CPElide": "cpelide", "HMG": "hmg"}

// account splits the traced repetitions' worker time (workers x wall,
// summed over traced repetitions) into layer self-times. Every launch's
// execution span (first memory access to the next boundary) is split into
// access generation, estimated from the probe's per-access cost, and the
// memory walk, which is the rest (it also holds the per-chiplet timing
// model). The named residual is the part of cp.Runner.Run outside every
// boundary and launch span: CP dispatch and the event loop. "Outside" is
// worker time spent in no simulation: farm scheduling, figure assembly,
// the benchmark loop, idle workers.
func (t *tracer) account(b *bench, workerTime time.Duration, pr probeResults) {
	s := t.sums
	W := float64(workerTime)
	gen := pr.genNSPerAccess * float64(s.calls)
	parts := map[string]float64{
		"self.workloads_share":  float64(s.build),
		"self.machine_share":    float64(s.machine),
		"self.protocol_share":   float64(s.protoNew),
		"self.cp_runner_share":  float64(s.runner),
		"self.prelaunch_share":  float64(s.prelaunch),
		"self.gpu_sync_share":   float64(s.sync),
		"self.mem_access_share": float64(s.exec) - gen,
		"self.kernels_share":    gen,
		"self.report_share":     float64(s.report),
		"self.residual_share":   float64(s.run - s.prelaunch - s.sync - s.exec),
		"self.outside_share":    W - float64(s.sims),
	}
	for k, v := range parts {
		b.layers[k] = metric{ratio(v, W), "ratio"}
	}
}

// writeSpans dumps the span log in Chrome trace-event format (one complete
// event per span, lanes as threads) for chrome://tracing or Perfetto.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, ev{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "droppedSpans": t.dropped})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

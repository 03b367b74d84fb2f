package core

import (
	"repro/internal/coherence"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Protocol is CPElide as a pluggable coherence policy: the baseline
// VIPER-chiplet access path (CPElide changes no coherence protocol and no
// cache structure), with the Chiplet Coherence Table deciding which
// chiplet-targeted acquires and releases — if any — each kernel launch
// performs.
type Protocol struct {
	*coherence.Baseline
	Table *Table

	// viewsBuf and rsArena back the per-launch ArgView slices handed to the
	// table. They are valid only for the duration of one PreLaunch call: the
	// table copies (never aliases) everything it keeps, so both are reused
	// at the next boundary without allocating.
	viewsBuf []ArgView
	rsArena  []mem.RangeSet
}

// Options tunes CPElide variants for the ablation studies.
type Options struct {
	// RangeOps enables the fine-grained hardware range-flush extension
	// (Section VI): operations invalidate/flush only the tracked address
	// ranges instead of the whole L2.
	RangeOps bool
	// TableEntries overrides the Chiplet Coherence Table capacity
	// (default: the machine configuration's 8 structures x 8 kernels).
	TableEntries int
}

// New builds CPElide over machine m with default options.
func New(m *machine.Machine) (*Protocol, error) { return NewWithOptions(m, Options{}) }

// NewWithOptions builds CPElide over machine m.
func NewWithOptions(m *machine.Machine, o Options) (*Protocol, error) {
	entries := m.Cfg.TableEntries()
	if o.TableEntries > 0 {
		entries = o.TableEntries
	}
	t, err := NewTable(Config{
		Chiplets:          m.Cfg.NumChiplets,
		MaxDataStructures: m.Cfg.TableMaxDataStructures,
		MaxEntries:        entries,
		RangeOps:          o.RangeOps,
	})
	if err != nil {
		return nil, err
	}
	return &Protocol{
		Baseline: coherence.NewBaseline(m),
		Table:    t,
	}, nil
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string { return "CPElide" }

// PreLaunch consults the Chiplet Coherence Table and converts its decisions
// into synchronization operations. The elision statistics compare against
// the baseline's 2*N ops (one flush and one invalidate per chiplet) per
// kernel boundary.
func (p *Protocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	m := p.M
	cfg := &m.Cfg
	if cfg.IsMonolithic() {
		return coherence.SyncPlan{CPCycles: cfg.CPLatencyCycles()}
	}

	views := p.argViews(l)
	var preState string
	if m.Trace.Enabled() {
		// Snapshot the table before the launch mutates it: the audit log
		// must show the state that justified the decisions.
		preState = p.Table.String()
	}
	ops := p.Table.OnKernelLaunch(views)

	plan := coherence.SyncPlan{
		CPCycles: cfg.CPLatencyCycles() + cfg.CPElideOverheadCycles(),
	}
	planOps := p.TakeOps()
	releases, acquires := 0, 0
	for _, op := range ops {
		kind := coherence.Acquire
		if op.Flush {
			kind = coherence.Release
			releases++
		} else {
			acquires++
		}
		planOps = append(planOps, coherence.SyncOp{
			Chiplet: op.Chiplet,
			Kind:    kind,
			Ranges:  op.Ranges,
		})
	}
	p.KeepOps(planOps)
	plan.Ops = planOps
	// One request + one ack per op, plus a launch-enable per target chiplet.
	plan.Messages = 2*len(ops) + len(l.Chiplets)

	m.Sheet.Add(stats.ReleasesIssued, uint64(releases))
	m.Sheet.Add(stats.AcquiresIssued, uint64(acquires))
	n := uint64(cfg.NumChiplets)
	m.Sheet.Add(stats.ReleasesElided, n-minu(uint64(releases), n))
	m.Sheet.Add(stats.AcquiresElided, n-minu(uint64(acquires), n))
	m.Sheet.Max(stats.TablePeakUse, uint64(p.Table.PeakEntries))
	m.Sheet.Set(stats.TableCoarsening, uint64(p.Table.Coarsenings))

	if m.Trace.Enabled() {
		audit := trace.Audit{
			Ts:     m.Trace.Now(),
			Kernel: l.Kernel.Name,
			Inst:   l.Inst,
			Stream: l.Stream,
			// The elision increments mirror the sheet accounting above
			// exactly, so summing the audit log reproduces the counters.
			AcquiresIssued: uint64(acquires),
			ReleasesIssued: uint64(releases),
			AcquiresElided: n - minu(uint64(acquires), n),
			ReleasesElided: n - minu(uint64(releases), n),
			Table:          preState,
		}
		decisions := make([]trace.ChipletDecision, cfg.NumChiplets)
		for c := range decisions {
			decisions[c].Chiplet = c
		}
		for _, op := range ops {
			if op.Flush {
				decisions[op.Chiplet].ReleaseIssued = true
			} else {
				decisions[op.Chiplet].AcquireIssued = true
			}
		}
		audit.Decisions = decisions
		m.Trace.AuditKernel(audit)
	}
	return plan
}

func minu(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// argViews converts a launch's argument metadata into the table's input:
// per-argument, per-machine-chiplet declared ranges plus the cacheable
// subset (locally homed pages — the protocol never caches remote lines, and
// the global CP makes the placement decisions, so it knows the homes).
func (p *Protocol) argViews(l *coherence.Launch) []ArgView {
	n := p.M.Cfg.NumChiplets
	views := p.viewsBuf[:0]
	p.rsArena = p.rsArena[:0]
	// grab carves n zeroed RangeSets out of the arena. Appending fresh zero
	// values (rather than reslicing) keeps reused capacity clean.
	grab := func() []mem.RangeSet {
		start := len(p.rsArena)
		for i := 0; i < n; i++ {
			p.rsArena = append(p.rsArena, mem.RangeSet{})
		}
		return p.rsArena[start : start+n : start+n]
	}
	for ai, a := range l.Kernel.Args {
		v := ArgView{
			Base:      a.DS.Base,
			Full:      a.DS.Range(),
			Mode:      a.Mode,
			Ranges:    grab(),
			Cacheable: grab(),
		}
		atomicScatter := a.Pattern == kernels.Indirect && a.Mode == kernels.ReadWrite
		for slot, c := range l.Chiplets {
			v.Ranges[c] = l.ArgRanges[ai][slot]
			if atomicScatter {
				// Atomic scatter updates execute at the home ordering
				// point and never allocate in the requester's L2, and the
				// CP sees the atomic opcodes in the kernel object — so the
				// table need not track these accesses as cacheable. Their
				// writes still stale other chiplets' copies (Ranges).
				continue
			}
			v.Cacheable[c] = p.homedSubset(c, l.ArgRanges[ai][slot])
		}
		views = append(views, v)
	}
	p.viewsBuf = views
	return views
}

// homedSubset returns the pages of rs homed on chiplet c. Unplaced pages
// are included conservatively (they could be first-touched by c).
func (p *Protocol) homedSubset(c int, rs mem.RangeSet) mem.RangeSet {
	pages := p.M.Pages
	ps := mem.Addr(pages.PageSize())
	var out mem.RangeSet
	for ri, rn := 0, rs.Len(); ri < rn; ri++ {
		r := rs.At(ri)
		runStart := mem.Addr(0)
		inRun := false
		for lo := r.Lo &^ (ps - 1); lo < r.Hi; lo += ps {
			h := pages.HomeIfPlaced(lo)
			mine := h == c || h < 0
			if mine && !inRun {
				runStart, inRun = lo, true
			}
			if !mine && inRun {
				out.Add(mem.Range{Lo: runStart, Hi: lo}.Intersect(r))
				inRun = false
			}
		}
		if inRun {
			out.Add(mem.Range{Lo: runStart, Hi: r.Hi}.Intersect(r))
		}
	}
	return out
}

// Finalize flushes the chiplets the table still tracks as Dirty — the only
// end-of-program releases CPElide needs.
func (p *Protocol) Finalize() coherence.SyncPlan {
	if p.M.Cfg.IsMonolithic() {
		return p.Baseline.Finalize()
	}
	var plan coherence.SyncPlan
	ops := p.TakeOps()
	for _, op := range p.Table.FinalizeOps() {
		ops = append(ops, coherence.SyncOp{
			Chiplet: op.Chiplet,
			Kind:    coherence.Release,
			Ranges:  op.Ranges,
		})
	}
	p.KeepOps(ops)
	plan.Ops = ops
	return plan
}

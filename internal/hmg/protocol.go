package hmg

import (
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

const reqBytes = 8

// Options selects HMG variants.
type Options struct {
	// WriteBack switches the L2s from write-through (the paper's chosen
	// HMG configuration) to write-back (the ablation variant the paper
	// found 13% worse geomean).
	WriteBack bool
	// DirEntries is the per-chiplet directory capacity (default 12K, the
	// largest size HMG studied, as in Section IV-C).
	DirEntries int
	// LinesPerEntry is the number of cache lines a directory entry covers
	// (default 4, as in the paper; 1 for the precision ablation).
	LinesPerEntry int
	// DirAssoc is the directory associativity (default 8).
	DirAssoc int
}

func (o Options) withDefaults() Options {
	if o.DirEntries <= 0 {
		o.DirEntries = 12 * 1024
	}
	if o.LinesPerEntry <= 0 {
		o.LinesPerEntry = 4
	}
	if o.DirAssoc <= 0 {
		o.DirAssoc = 8
	}
	return o
}

// Validate reports whether New can build HMG with these options on a
// machine with lineSize-byte lines, without allocating the directories.
// The error wraps ErrConfig.
func (o Options) Validate(lineSize int) error {
	o = o.withDefaults()
	_, err := checkGeometry(o.DirEntries, o.DirAssoc, o.LinesPerEntry, lineSize)
	return err
}

// Protocol is HMG over the simulated machine. Unlike the baseline it never
// flushes or invalidates L2s at kernel boundaries: hierarchical sharer
// tracking keeps the L2s coherent. The costs are per-store write-through
// traffic, home-node caching of remote data (evicting local lines), and
// directory-eviction invalidations.
type Protocol struct {
	m    *machine.Machine
	opts Options
	dirs []*directory // home-side directory per chiplet
}

// New builds HMG over machine m. An invalid directory geometry returns an
// error wrapping ErrConfig.
func New(m *machine.Machine, opts Options) (*Protocol, error) {
	opts = opts.withDefaults()
	p := &Protocol{m: m, opts: opts}
	for c := 0; c < m.Cfg.NumChiplets; c++ {
		d, err := newDirectory(
			opts.DirEntries, opts.DirAssoc, opts.LinesPerEntry, m.Cfg.LineSize)
		if err != nil {
			return nil, err
		}
		p.dirs = append(p.dirs, d)
	}
	return p, nil
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string {
	if p.opts.WriteBack {
		return "HMG-WB"
	}
	return "HMG"
}

// PreLaunch performs no L2 synchronization: HMG's directories keep the L2s
// coherent across kernel boundaries. (L1 invalidation is performed by the
// executor for every protocol.)
func (p *Protocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	return coherence.SyncPlan{CPCycles: p.m.Cfg.CPLatencyCycles()}
}

// Access implements the HMG access path.
func (p *Protocol) Access(chiplet, cu int, line mem.Addr, write, atomic bool) coherence.AccessResult {
	if atomic {
		return p.atomicAccess(chiplet, line, write)
	}
	if write {
		return p.store(chiplet, cu, line)
	}
	return p.load(chiplet, cu, line)
}

func (p *Protocol) load(chiplet, cu int, line mem.Addr) coherence.AccessResult {
	m := p.m
	cfg := &m.Cfg
	if ver, hit := m.L1Read(chiplet, cu, line); hit {
		m.Mem.Observe(line, ver)
		return coherence.AccessResult{Cycles: cfg.L1Latency, Level: coherence.LevelL1}
	}
	m.Sheet.Inc(stats.L2Accesses)
	if ver, hit := m.L2[chiplet].Read(line); hit {
		m.Sheet.Inc(stats.L2Hits)
		m.BookL2(chiplet, cfg.LineSize)
		m.Mem.Observe(line, ver)
		m.L1Fill(chiplet, cu, line, ver)
		return coherence.AccessResult{Cycles: cfg.L2LocalLatency, Level: coherence.LevelL2}
	}
	m.Sheet.Inc(stats.L2Misses)
	home := m.Home(line, chiplet)

	if home == chiplet {
		ver, cy := m.L3Read(line, chiplet, home)
		m.Mem.Observe(line, ver)
		m.BookL2(chiplet, cfg.LineSize+cfg.LineSize/2)
		p.fillL2(chiplet, line, ver, false)
		m.L1Fill(chiplet, cu, line, ver)
		return coherence.AccessResult{Cycles: cy, Level: coherence.LevelL3}
	}

	// Remote line: forward to the home node's L2, which always holds the
	// most up-to-date value when present.
	m.Fabric.Remote(chiplet, home, reqBytes+cfg.LineSize)
	var ver uint32
	var cy int
	level := coherence.LevelL2Remote
	if v, hit := m.L2[home].Read(line); hit {
		m.Sheet.Inc(stats.L2RemoteHits)
		ver, cy = v, m.RemoteLatency(chiplet, home)
	} else {
		ver0, extra := m.L3Read(line, home, home) // home-side L3 bank access
		ver = ver0
		// Cumulative: the NUMA hop plus however far past the home L3 the
		// line was (extra already includes the home bank's latency).
		cy = m.RemoteLatency(chiplet, home) + extra - cfg.L3Latency
		level = coherence.LevelL3
		p.fillL2(home, line, ver, false)
	}
	m.Mem.Observe(line, ver)
	m.BookL2(home, cfg.LineSize)
	m.BookL2(chiplet, cfg.LineSize/2) // requester-side fill
	// HMG caches the remote read at the requester and registers it as a
	// sharer at the home directory.
	p.fillL2(chiplet, line, ver, false)
	m.L1Fill(chiplet, cu, line, ver)
	cy += p.registerSharer(home, line, chiplet)
	return coherence.AccessResult{Cycles: cy, Level: level}
}

func (p *Protocol) store(chiplet, cu int, line mem.Addr) coherence.AccessResult {
	m := p.m
	cfg := &m.Cfg
	ver := m.Mem.Store(line)
	m.L1WriteThrough(chiplet, cu, line, ver)
	m.Sheet.Inc(stats.L2Accesses)
	home := m.Home(line, chiplet)

	// Invalidate other chiplets' cached copies of the line's group before
	// the store is visible (the directory keeps sharers precise).
	blocking := p.invalidateSharers(home, line, chiplet)

	if p.opts.WriteBack {
		return p.storeWriteBack(chiplet, line, ver, home, blocking)
	}

	// Write-through: the sender and home L2s retain valid copies; the data
	// goes through to memory.
	m.Sheet.Inc(stats.L2WriteThru)
	m.BookL2(chiplet, cfg.LineSize)
	if home != chiplet {
		m.BookL2(home, cfg.LineSize)
	}
	m.Mem.Commit(line, ver)
	m.Sheet.Inc(stats.DRAMWrites)
	// Per-store write-through trickles line-sized writes into HBM, paying
	// turnaround/row penalties a batched writeback drain avoids: 1.25x
	// effective occupancy.
	m.Fabric.DRAM(home, cfg.LineSize*5/4)
	m.Fabric.L2L3(home, home, reqBytes+cfg.LineSize)
	p.fillL2(chiplet, line, ver, false)
	if home == chiplet {
		m.Sheet.Inc(stats.L2Hits)
		return coherence.AccessResult{Cycles: cfg.L2LocalLatency, Level: coherence.LevelL2}
	}
	m.Fabric.Remote(chiplet, home, reqBytes+cfg.LineSize)
	p.fillL2(home, line, ver, false)
	cy := m.RemoteLatency(chiplet, home) + p.registerSharer(home, line, chiplet)
	return coherence.AccessResult{Cycles: cy, Level: coherence.LevelL2Remote}
}

// storeWriteBack is the ablation variant: stores land dirty in the home
// node's L2 instead of writing through to memory. Because write-back stores
// need exclusivity before completing, sharer invalidations block the store
// (write-through posts them), which is where the variant loses the paper's
// 13% geomean.
func (p *Protocol) storeWriteBack(chiplet int, line mem.Addr, ver uint32, home, blockingInvals int) coherence.AccessResult {
	m := p.m
	cfg := &m.Cfg
	cy := blockingInvals * cfg.CPUnicastLatency
	p.fillL2(chiplet, line, ver, home == chiplet) // sender copy; dirty only at home
	if home == chiplet {
		m.Sheet.Inc(stats.L2Hits)
		p.fillL2(home, line, ver, true)
		return coherence.AccessResult{Cycles: cfg.L2LocalLatency + cy, Level: coherence.LevelL2}
	}
	m.Fabric.Remote(chiplet, home, reqBytes+cfg.LineSize)
	p.fillL2(home, line, ver, true)
	cy += p.registerSharer(home, line, chiplet)
	return coherence.AccessResult{Cycles: m.RemoteLatency(chiplet, home) + cy, Level: coherence.LevelL2Remote}
}

// atomicAccess performs a read-modify-write at the line's home L2, HMG's
// per-line ordering point.
func (p *Protocol) atomicAccess(chiplet int, line mem.Addr, write bool) coherence.AccessResult {
	m := p.m
	cfg := &m.Cfg
	home := m.Home(line, chiplet)
	cy := cfg.L2LocalLatency
	if home != chiplet {
		cy = m.RemoteLatency(chiplet, home)
		m.Fabric.Remote(chiplet, home, reqBytes+cfg.LineSize)
	}
	m.Sheet.Inc(stats.L2Accesses)
	ver, hit := m.L2[home].Read(line)
	if hit {
		m.Sheet.Inc(stats.L2Hits)
	} else {
		m.Sheet.Inc(stats.L2Misses)
		v, extra := m.L3Read(line, home, home)
		ver, cy = v, cy+extra-cfg.L3Latency
	}
	m.Mem.Observe(line, ver)
	if write {
		p.invalidateSharers(home, line, home)
		nv := m.Mem.Store(line)
		if p.opts.WriteBack {
			p.fillL2(home, line, nv, true)
		} else {
			m.Mem.Commit(line, nv)
			m.Sheet.Inc(stats.DRAMWrites)
			m.Fabric.DRAM(home, cfg.LineSize*5/4)
			p.fillL2(home, line, nv, false)
		}
	}
	return coherence.AccessResult{Cycles: cy, Level: coherence.LevelL2Remote}
}

// fillL2 installs a line in chiplet's L2. Write-through mode never holds
// dirty lines, so evictions are silent; in write-back mode dirty victims are
// written back to their home.
func (p *Protocol) fillL2(chiplet int, line mem.Addr, ver uint32, dirty bool) {
	if ev := p.m.L2[chiplet].Fill(line, ver, dirty); ev.Evicted && ev.Dirty {
		p.m.CommitWriteback(ev.Line, ev.Ver, chiplet)
	}
}

// registerSharer records chiplet as a sharer of line's group at home's
// directory, handling directory-eviction invalidations (inclusion). It
// returns the cycles the triggering fill stalls: an inclusive directory
// cannot complete the new registration until the displaced entry's sharers
// have acknowledged their invalidations.
func (p *Protocol) registerSharer(home int, line mem.Addr, chiplet int) int {
	d := p.dirs[home]
	evicted, was := d.addSharer(d.group(line), chiplet)
	if !was {
		return 0
	}
	p.m.Sheet.Inc(stats.DirEvictions)
	n := p.invalidateMask(home, d.base(evicted), evicted.sharers)
	return p.m.Cfg.CPUnicastLatency * (1 + n)
}

// invalidateSharers invalidates every sharer of line's group except keep and
// returns the number of blocking invalidations sent.
func (p *Protocol) invalidateSharers(home int, line mem.Addr, keep int) int {
	d := p.dirs[home]
	g := d.group(line)
	removed := d.clearOthers(g, keep)
	if removed == 0 {
		return 0
	}
	return p.invalidateMask(home, g, removed)
}

// invalidateMask drops every line of group g from the L2s in mask, counting
// invalidation messages and traffic. It returns the number of targets.
func (p *Protocol) invalidateMask(home int, g mem.Addr, mask uint16) int {
	m := p.m
	d := p.dirs[home]
	r := d.groupRange(g)
	step := mem.Addr(m.Cfg.LineSize)
	n := 0
	for c := 0; c < m.Cfg.NumChiplets; c++ {
		if mask&(1<<c) == 0 {
			continue
		}
		n++
		m.Sheet.Inc(stats.DirInvals)
		if c != home {
			// Invalidation + per-line acknowledgments for the whole group.
			m.Fabric.Remote(home, c, reqBytes*(1+int(1)<<(d.groupShift-6)))
		}
		// Dirty copies can exist only in the write-back variant and only
		// at the home, which is never in the mask; drops are safe.
		for line := r.Lo; line < r.Hi; line += step {
			m.L2[c].Invalidate(line)
		}
	}
	return n
}

// Finalize flushes any dirty home-L2 data (write-back variant only; the
// write-through configuration has already committed everything).
func (p *Protocol) Finalize() coherence.SyncPlan {
	if !p.opts.WriteBack {
		return coherence.SyncPlan{}
	}
	var plan coherence.SyncPlan
	for c := 0; c < p.m.Cfg.NumChiplets; c++ {
		plan.Ops = append(plan.Ops, coherence.SyncOp{Chiplet: c, Kind: coherence.Release})
	}
	return plan
}

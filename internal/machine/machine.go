// Package machine assembles the simulated multi-chiplet GPU's memory system:
// per-CU L1s, per-chiplet L2s, the banked shared L3, HBM partitions, the
// first-touch page table, and the interconnect fabric. Coherence protocols
// compose its primitives into access paths and synchronization operations.
package machine

import (
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/trace"
)

// reqBytes is the size of a request/ack message on the interconnect; line
// transfers add the line size.
const reqBytes = 8

// Machine is the physical model. All caches carry data versions so the
// staleness checker in mem.Memory can validate every read.
type Machine struct {
	Cfg    config.GPU
	Sheet  *stats.Sheet
	Mem    *mem.Memory
	Pages  *mem.PageTable
	Fabric *noc.Fabric

	// Trace, when non-nil, receives timeline events (maintenance operations
	// with line counts here; kernel spans and audits from the layers above).
	// Tracing never touches Sheet, so enabling it changes no counter.
	Trace *trace.Recorder

	L1 [][]*mem.Cache // [chiplet][cu]
	L2 []*mem.Cache   // [chiplet]
	L3 []*mem.Cache   // [chiplet] banks of the shared LLC

	// l2BankBytes tracks service bytes per L2 bank: requests arriving at a
	// bank occupy its arrays regardless of which chiplet sent them, which
	// is what makes hot banks a bottleneck for NUCA-style designs.
	l2BankBytes []uint64
	// l3BankBytes tracks service bytes per L3 bank likewise.
	l3BankBytes []uint64
}

// New builds a machine covering the address span of bounds. An invalid
// configuration or cache geometry returns an error (config validation
// errors, or mem.ErrGeometry / noc.ErrConfig wrapped) instead of panicking,
// so a bad sweep point surfaces as a run error rather than a dead worker.
func New(cfg config.GPU, bounds mem.Range, sheet *stats.Sheet) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumChiplets
	m := &Machine{
		Cfg: cfg,
		L1:  make([][]*mem.Cache, n),
		L2:  make([]*mem.Cache, n),
		L3:  make([]*mem.Cache, n),
	}
	if err := m.bind(bounds, sheet); err != nil {
		return nil, err
	}
	m.l2BankBytes = make([]uint64, n)
	m.l3BankBytes = make([]uint64, n)
	// All per-CU L1s share one backing allocation: building n*CUs caches
	// individually would dominate machine-construction allocation counts.
	l1s, err := mem.NewCacheArray("L1", n*cfg.CUsPerChiplet, cfg.L1SizeBytes, cfg.L1Assoc, cfg.LineSize)
	if err != nil {
		return nil, err
	}
	for c := 0; c < n; c++ {
		m.L1[c] = make([]*mem.Cache, cfg.CUsPerChiplet)
		for cu := 0; cu < cfg.CUsPerChiplet; cu++ {
			m.L1[c][cu] = &l1s[c*cfg.CUsPerChiplet+cu]
		}
		if m.L2[c], err = mem.NewCache("L2", cfg.L2SizeBytes, cfg.L2Assoc, cfg.LineSize); err != nil {
			return nil, err
		}
		bank := cfg.L3SizeBytes / n
		bank -= bank % (cfg.L3Assoc * cfg.LineSize)
		if m.L3[c], err = mem.NewCache("L3", bank, cfg.L3Assoc, cfg.LineSize); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// bind gives the machine the run-scoped state New and Acquire build afresh
// for every run: a memory image and page table covering bounds, and a
// fabric counting into sheet.
func (m *Machine) bind(bounds mem.Range, sheet *stats.Sheet) error {
	memory, err := mem.NewMemory(bounds.Lo, bounds.Size(), m.Cfg.LineSize)
	if err != nil {
		return err
	}
	pages, err := mem.NewPageTable(bounds.Lo, bounds.Size(), m.Cfg.PageSize)
	if err != nil {
		return err
	}
	fabric, err := noc.New(m.Cfg.NumChiplets, m.Cfg.FlitSize, sheet, m.Cfg.ChipletsPerGPU())
	if err != nil {
		return err
	}
	m.Sheet, m.Mem, m.Pages, m.Fabric = sheet, memory, pages, fabric
	return nil
}

// Home returns the home chiplet of line, first-touch placing its page on
// the accessing chiplet if untouched.
func (m *Machine) Home(line mem.Addr, accessor int) int {
	if m.Cfg.NumChiplets == 1 {
		return 0
	}
	return m.Pages.Home(line, accessor)
}

// LineSize returns the cache line size in bytes.
func (m *Machine) LineSize() int { return m.Cfg.LineSize }

// BookL2 records that bank served bytes of L2 array traffic (probes, line
// reads, fills); the timing model turns the per-bank totals into occupancy
// floors.
func (m *Machine) BookL2(bank, bytes int) {
	m.l2BankBytes[bank] += uint64(bytes)
}

// L2BankBytes returns cumulative service bytes at a bank.
func (m *Machine) L2BankBytes(bank int) uint64 { return m.l2BankBytes[bank] }

// L3BankBytes returns cumulative service bytes at an L3 bank.
func (m *Machine) L3BankBytes(bank int) uint64 { return m.l3BankBytes[bank] }

// RemoteLatency returns the cumulative latency of a request from chiplet
// `from` served at chiplet `to`: the on-package remote latency, or the
// inter-GPU latency when the chiplets sit on different GPU packages.
func (m *Machine) RemoteLatency(from, to int) int {
	if m.Fabric.InterGPU(from, to) {
		return m.Cfg.CrossGPULatency
	}
	return m.Cfg.L2RemoteLatency
}

// ---------------------------------------------------------------------------
// L3 bank + HBM: the inter-chiplet ordering point.
// ---------------------------------------------------------------------------

// L3Read serves a read at line's home L3 bank on behalf of chiplet from.
// It returns the committed version and the latency past the L2 level,
// accounting L3/DRAM stats and traffic. The L3 bank is filled on a miss, in
// the same probe of its set.
func (m *Machine) L3Read(line mem.Addr, from, home int) (ver uint32, cycles int) {
	cfg := &m.Cfg
	m.Sheet.Inc(stats.L3Accesses)
	m.l3BankBytes[home] += uint64(cfg.LineSize)
	ver = m.Mem.Committed(line)
	if _, hit, ev := m.L3[home].ReadFill(line); hit {
		m.Sheet.Inc(stats.L3Hits)
		cycles = cfg.L3Latency
	} else {
		m.Sheet.Inc(stats.L3Misses)
		m.Sheet.Inc(stats.DRAMReads)
		m.Fabric.DRAM(home, cfg.LineSize)
		m.l3Spill(home, ev)
		cycles = cfg.L3Latency + cfg.DRAMLatency
	}
	if from == home {
		m.Fabric.L2L3(from, home, reqBytes+cfg.LineSize)
	} else {
		m.Fabric.Remote(from, home, reqBytes+cfg.LineSize)
		cycles += m.RemoteLatency(from, home) - cfg.L3Latency // NUMA indirection penalty
	}
	return ver, cycles
}

// L3Write commits a store of version ver to line's home L3 bank on behalf of
// chiplet from (a write-through past the L2s). It returns the store's
// acceptance latency.
func (m *Machine) L3Write(line mem.Addr, ver uint32, from, home int) (cycles int) {
	cfg := &m.Cfg
	m.Sheet.Inc(stats.L3Accesses)
	m.l3BankBytes[home] += uint64(cfg.LineSize)
	m.Mem.Commit(line, ver)
	m.l3Fill(line, home, true)
	if from == home {
		m.Fabric.L2L3(from, home, reqBytes+cfg.LineSize)
		return cfg.L3Latency
	}
	m.Fabric.Remote(from, home, reqBytes+cfg.LineSize)
	return m.RemoteLatency(from, home)
}

// l3Fill installs line into its home bank, spilling an evicted dirty victim
// to the bank's HBM partition.
func (m *Machine) l3Fill(line mem.Addr, home int, dirty bool) {
	m.l3Spill(home, m.L3[home].Fill(line, 0, dirty))
}

// l3Spill writes a dirty line evicted from bank home back to its HBM
// partition.
func (m *Machine) l3Spill(home int, ev mem.EvictInfo) {
	if ev.Evicted && ev.Dirty {
		m.Sheet.Inc(stats.L3Writebacks)
		m.Sheet.Inc(stats.DRAMWrites)
		m.Fabric.DRAM(home, m.Cfg.LineSize)
	}
}

// CommitWriteback writes an evicted or flushed dirty L2 line back to its
// home L3 bank, accounting traffic from chiplet from.
func (m *Machine) CommitWriteback(line mem.Addr, ver uint32, from int) {
	home := m.Home(line, from)
	m.Mem.Commit(line, ver)
	m.Sheet.Inc(stats.L2Writebacks)
	m.l3Fill(line, home, true)
	m.Fabric.L2L3(from, home, reqBytes+m.Cfg.LineSize)
}

// ---------------------------------------------------------------------------
// L1 level.
// ---------------------------------------------------------------------------

// L1Read looks up line in (chiplet, cu)'s L1. A miss installs the line, in
// the same probe of its set, with a placeholder version: the caller fetches
// from the L2 level and must complete the install with L1Fill before it
// touches that L1 again. The L1 is clean and write-through, so the displaced
// line needs no writeback.
func (m *Machine) L1Read(chiplet, cu int, line mem.Addr) (ver uint32, hit bool) {
	m.Sheet.Inc(stats.L1Accesses)
	ver, hit, _ = m.L1[chiplet][cu].ReadFill(line)
	if hit {
		m.Sheet.Inc(stats.L1Hits)
	} else {
		m.Sheet.Inc(stats.L1Misses)
		m.Fabric.L1L2(reqBytes + m.Cfg.LineSize)
	}
	return ver, hit
}

// L1Fill installs a clean line into (chiplet, cu)'s L1. After an L1Read
// miss it only sets the version of the line that miss installed.
func (m *Machine) L1Fill(chiplet, cu int, line mem.Addr, ver uint32) {
	m.L1[chiplet][cu].FillMRU(line, ver)
}

// L1WriteThrough models a store passing through the write-through,
// write-no-allocate L1: a cached copy is refreshed, and the store occupies
// the L1-L2 link.
func (m *Machine) L1WriteThrough(chiplet, cu int, line mem.Addr, ver uint32) {
	m.Sheet.Inc(stats.L1Accesses)
	m.L1[chiplet][cu].UpdateClean(line, ver)
	m.Fabric.L1L2(reqBytes + m.Cfg.LineSize)
}

// InvalidateL1s drops all L1 contents on a chiplet (the per-kernel-boundary
// L1 invalidation that every protocol, including CPElide, retains).
func (m *Machine) InvalidateL1s(chiplet int) int {
	n := 0
	for _, c := range m.L1[chiplet] {
		n += c.InvalidateAll()
	}
	return n
}

// ---------------------------------------------------------------------------
// L2 synchronization operations.
// ---------------------------------------------------------------------------

// FlushL2 writes back every dirty line of chiplet's L2 (a release). Clean
// copies are retained. It returns the number of lines written back and the
// walk+writeback cycles the operation occupies.
func (m *Machine) FlushL2(chiplet int) (lines, cycles int) {
	c := m.L2[chiplet]
	walked := c.Lines()
	lines = c.FlushAll(func(line mem.Addr, ver uint32) {
		m.CommitWriteback(line, ver, chiplet)
	})
	m.Sheet.Inc(stats.L2FlushOps)
	cycles = m.maintenanceCycles(walked, lines)
	m.Trace.Sync(chiplet, trace.Release, uint64(lines), uint64(cycles))
	return lines, cycles
}

// FlushL2Ranges writes back dirty lines within rs (the fine-grained
// hardware range-flush extension of Section VI).
func (m *Machine) FlushL2Ranges(chiplet int, rs mem.RangeSet) (lines, cycles int) {
	c := m.L2[chiplet]
	walked := c.Lines()
	lines = c.FlushRanges(rs, func(line mem.Addr, ver uint32) {
		m.CommitWriteback(line, ver, chiplet)
	})
	m.Sheet.Inc(stats.L2FlushOps)
	cycles = m.maintenanceCycles(walked, lines)
	m.Trace.Sync(chiplet, trace.Release, uint64(lines), uint64(cycles))
	return lines, cycles
}

// InvalidateL2 drops every line of chiplet's L2 (an acquire). Dirty lines
// are written back first — a write-back cache cannot discard dirty data —
// so an acquire on a chiplet with dirty lines implies a flush.
func (m *Machine) InvalidateL2(chiplet int) (lines, cycles int) {
	c := m.L2[chiplet]
	walked := c.Lines()
	wb := c.FlushAll(func(line mem.Addr, ver uint32) {
		m.CommitWriteback(line, ver, chiplet)
	})
	lines = c.InvalidateAll()
	m.Sheet.Add(stats.L2Invalidates, uint64(lines))
	m.Sheet.Inc(stats.L2InvOps)
	cycles = m.maintenanceCycles(walked, wb)
	m.Trace.Sync(chiplet, trace.Acquire, uint64(lines), uint64(cycles))
	return lines, cycles
}

// InvalidateL2Ranges drops lines within rs, writing dirty ones back first.
func (m *Machine) InvalidateL2Ranges(chiplet int, rs mem.RangeSet) (lines, cycles int) {
	c := m.L2[chiplet]
	walked := c.Lines()
	wb := c.FlushRanges(rs, func(line mem.Addr, ver uint32) {
		m.CommitWriteback(line, ver, chiplet)
	})
	lines = c.InvalidateRanges(rs)
	m.Sheet.Add(stats.L2Invalidates, uint64(lines))
	m.Sheet.Inc(stats.L2InvOps)
	cycles = m.maintenanceCycles(walked, wb)
	m.Trace.Sync(chiplet, trace.Acquire, uint64(lines), uint64(cycles))
	return lines, cycles
}

// maintenanceCycles costs a cache-maintenance operation: a tag walk plus
// writeback occupancy on the L2-L3 path for each written-back line.
func (m *Machine) maintenanceCycles(walkedLines, writebacks int) int {
	cfg := &m.Cfg
	walk := walkedLines / cfg.CacheWalkLinesPerCycle
	wb := 0
	if writebacks > 0 {
		bytes := float64(writebacks * (reqBytes + cfg.LineSize))
		wb = int(bytes/cfg.L3BWBytesCy) + cfg.L3Latency
	}
	return walk + wb
}

// Reset restores the machine to power-on state: cold caches, no page
// placements, zeroed versions. The stats sheet is left to the owner.
func (m *Machine) Reset() {
	m.Mem.Reset()
	m.Pages.Reset()
	m.Fabric.Reset()
	m.resetCaches()
}

// resetCaches cools every cache (an O(1) epoch bump each) and zeroes the
// per-bank service totals: the part of Reset a reused machine needs, since
// Acquire replaces the memory image, page table and fabric outright.
func (m *Machine) resetCaches() {
	for i := range m.l2BankBytes {
		m.l2BankBytes[i] = 0
		m.l3BankBytes[i] = 0
	}
	for c := range m.L2 {
		m.L2[c].Reset()
		m.L3[c].Reset()
		for _, l1 := range m.L1[c] {
			l1.Reset()
		}
	}
}

package machine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

func smallCfg() config.GPU {
	g := config.Default(4)
	g.CUsPerChiplet = 4
	g.L1SizeBytes = 1 << 10
	g.L2SizeBytes = 64 << 10
	g.L3SizeBytes = 128 << 10
	return g
}

func newM(t *testing.T) *Machine {
	t.Helper()
	return must(New(smallCfg(), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
}

func TestMachineShape(t *testing.T) {
	m := newM(t)
	if len(m.L2) != 4 || len(m.L3) != 4 || len(m.L1) != 4 || len(m.L1[0]) != 4 {
		t.Fatal("machine shape wrong")
	}
	if m.LineSize() != 64 {
		t.Error("line size")
	}
}

// TestDefaultWayBytes pins the host footprint of a default 4-chiplet
// machine's cache way arrays: 240 16 KiB L1s, four 8 MiB L2s and four 4 MiB
// L3 banks hold 847,872 lines at 8 bytes each, about 6.8 MB.
func TestDefaultWayBytes(t *testing.T) {
	m := must(New(config.Default(4), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 1<<20}, stats.New()))
	total := 0
	for c := range m.L2 {
		for _, l1 := range m.L1[c] {
			total += l1.WayBytes()
		}
		total += m.L2[c].WayBytes() + m.L3[c].WayBytes()
	}
	if want := 847872 * 8; total != want {
		t.Errorf("way arrays total %d bytes, want %d (6.8 MB)", total, want)
	}
}

func TestHomeFirstTouch(t *testing.T) {
	m := newM(t)
	a := mem.Addr(0x1000_0000)
	if m.Home(a, 2) != 2 || m.Home(a, 3) != 2 {
		t.Error("first touch not sticky")
	}
}

func TestL3ReadFillAndDRAM(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0040)
	_, cy := m.L3Read(line, 1, 1)
	if cy != m.Cfg.L3Latency+m.Cfg.DRAMLatency {
		t.Errorf("cold L3 read latency = %d", cy)
	}
	if m.Sheet.Get(stats.DRAMReads) != 1 {
		t.Error("DRAM read not counted")
	}
	_, cy = m.L3Read(line, 1, 1)
	if cy != m.Cfg.L3Latency {
		t.Errorf("warm L3 read latency = %d", cy)
	}
	// Remote access pays the NUMA hop.
	_, cy = m.L3Read(line, 0, 1)
	if cy != m.Cfg.L2RemoteLatency {
		t.Errorf("remote L3 hit latency = %d, want %d", cy, m.Cfg.L2RemoteLatency)
	}
}

func TestL3WriteCommits(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0080)
	v := m.Mem.Store(line)
	cy := m.L3Write(line, v, 0, 2)
	if cy != m.Cfg.L2RemoteLatency {
		t.Errorf("remote write-through latency = %d", cy)
	}
	if m.Mem.Committed(line) != v {
		t.Error("write-through did not commit")
	}
}

func TestFlushAndInvalidateL2(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0000)
	m.Home(line, 1)
	v := m.Mem.Store(line)
	m.L2[1].Fill(line, v, true)

	lines, cy := m.FlushL2(1)
	if lines != 1 || cy <= 0 {
		t.Errorf("flush = %d lines, %d cycles", lines, cy)
	}
	if m.Mem.Committed(line) != v {
		t.Error("flush did not commit dirty data")
	}
	if m.L2[1].ValidLines() != 1 {
		t.Error("flush dropped the clean copy")
	}

	v2 := m.Mem.Store(line)
	m.L2[1].Write(line, v2)
	inv, _ := m.InvalidateL2(1)
	if inv != 1 {
		t.Errorf("invalidated %d lines", inv)
	}
	if m.Mem.Committed(line) != v2 {
		t.Error("invalidate discarded dirty data instead of flushing first")
	}
	if m.L2[1].ValidLines() != 0 {
		t.Error("invalidate left lines")
	}
}

func TestRangeMaintenanceOps(t *testing.T) {
	m := newM(t)
	a, b := mem.Addr(0x1000_0000), mem.Addr(0x1040_0000)
	m.Home(a, 0)
	m.Home(b, 0)
	m.L2[0].Fill(a, m.Mem.Store(a), true)
	m.L2[0].Fill(b, m.Mem.Store(b), true)
	rs := mem.NewRangeSet(mem.Range{Lo: a, Hi: a + 64})
	if lines, _ := m.FlushL2Ranges(0, rs); lines != 1 {
		t.Errorf("range flush hit %d lines", lines)
	}
	if m.L2[0].DirtyLines() != 1 {
		t.Error("range flush touched out-of-range line")
	}
	if lines, _ := m.InvalidateL2Ranges(0, rs); lines != 1 {
		t.Error("range invalidate wrong")
	}
	if m.Mem.Committed(b) != 0 {
		t.Error("range ops leaked to other lines")
	}
}

func TestL1PathsAndBoundaryInvalidate(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0000)
	if _, hit := m.L1Read(0, 1, line); hit {
		t.Error("cold L1 hit")
	}
	m.L1Fill(0, 1, line, 3)
	if ver, hit := m.L1Read(0, 1, line); !hit || ver != 3 {
		t.Error("L1 fill/read broken")
	}
	m.L1WriteThrough(0, 1, line, 4)
	if ver, _ := m.L1Read(0, 1, line); ver != 4 {
		t.Error("write-through did not refresh L1 copy")
	}
	if n := m.InvalidateL1s(0); n != 1 {
		t.Errorf("invalidated %d L1 lines", n)
	}
	if _, hit := m.L1Read(0, 1, line); hit {
		t.Error("L1 line survived boundary invalidation")
	}
}

// TestL1MissFillMatchesReadThenFill pins L1Read's install-on-miss: an L1Read
// miss completed by L1Fill, interleaved with write-throughs and boundary
// invalidations, leaves every line of the L1 exactly as a plain Read then, on
// a miss, Fill of a reference cache of the same geometry would.
func TestL1MissFillMatchesReadThenFill(t *testing.T) {
	m := newM(t)
	cfg := m.Cfg
	ref := must(mem.NewCache("ref", cfg.L1SizeBytes, cfg.L1Assoc, cfg.LineSize))
	base := mem.Addr(0x1000_0000)
	universe := 3 * ref.Lines()
	rnd := rand.New(rand.NewSource(7))
	for op := 0; op < 5000; op++ {
		line := base + mem.Addr(rnd.Intn(universe)*cfg.LineSize)
		ver := uint32(op + 1)
		switch rnd.Intn(10) {
		case 0:
			m.L1WriteThrough(0, 1, line, ver)
			ref.UpdateClean(line, ver)
		case 1:
			if rnd.Intn(8) == 0 {
				m.InvalidateL1s(0)
				ref.InvalidateAll()
			}
		default:
			v, hit := m.L1Read(0, 1, line)
			wv, whit := ref.Read(line)
			if v != wv || hit != whit {
				t.Fatalf("op %d: L1Read(%#x) = %d,%v, reference %d,%v", op, line, v, hit, wv, whit)
			}
			if !hit {
				m.L1Fill(0, 1, line, ver)
				ref.Fill(line, ver, false)
			}
		}
		l1 := m.L1[0][1]
		if l1.ValidLines() != ref.ValidLines() || l1.DirtyLines() != 0 {
			t.Fatalf("op %d: L1 holds %d lines (%d dirty), reference %d", op, l1.ValidLines(), l1.DirtyLines(), ref.ValidLines())
		}
		for i := 0; i < universe; i++ {
			l := base + mem.Addr(i*cfg.LineSize)
			v, _, hit := l1.Peek(l)
			wv, _, whit := ref.Peek(l)
			if v != wv || hit != whit {
				t.Fatalf("op %d: line %#x is %d,%v in the L1, %d,%v in the reference", op, l, v, hit, wv, whit)
			}
		}
	}
}

// TestL3ReadMatchesReadThenFill pins L3Read's install-on-miss against a
// reference bank driven by Read then, on a miss, a clean Fill: the same hits
// and the same dirty victims booked as L3 writebacks and DRAM writes.
func TestL3ReadMatchesReadThenFill(t *testing.T) {
	g := smallCfg()
	g.L3SizeBytes = 4 * 64 * 16 * 4 // 4 sets/bank, tiny
	m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	bank := m.L3[2]
	ref := must(mem.NewCache("ref", bank.Lines()*g.LineSize, bank.Assoc(), g.LineSize))
	base := mem.Addr(0x1000_0000)
	universe := 3 * ref.Lines()
	rnd := rand.New(rand.NewSource(11))
	var hits, spills uint64
	for op := 0; op < 5000; op++ {
		line := base + mem.Addr(rnd.Intn(universe)*g.LineSize)
		var ev mem.EvictInfo
		if rnd.Intn(3) == 0 {
			m.L3Write(line, m.Mem.Store(line), 0, 2)
			ev = ref.Fill(line, 0, true)
		} else {
			m.L3Read(line, 0, 2)
			if _, hit := ref.Read(line); hit {
				hits++
			} else {
				ev = ref.Fill(line, 0, false)
			}
		}
		if ev.Evicted && ev.Dirty {
			spills++
		}
		sh := m.Sheet
		if sh.Get(stats.L3Hits) != hits || sh.Get(stats.L3Writebacks) != spills || sh.Get(stats.DRAMWrites) != spills {
			t.Fatalf("op %d: L3 hits/writebacks/DRAM writes = %d/%d/%d, reference %d/%d/%d", op,
				sh.Get(stats.L3Hits), sh.Get(stats.L3Writebacks), sh.Get(stats.DRAMWrites), hits, spills, spills)
		}
	}
	if spills == 0 || hits == 0 {
		t.Fatalf("sequence exercised %d hits and %d dirty spills; want both", hits, spills)
	}
}

func TestCommitWritebackSpillsL3Victims(t *testing.T) {
	g := smallCfg()
	g.L3SizeBytes = 4 * 64 * 16 * 4 // 4 sets/bank, tiny
	m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	// Overflow one L3 bank with dirty writebacks.
	for i := 0; i < 600; i++ {
		line := mem.Addr(0x1000_0000 + i*64)
		m.Home(line, 0)
		m.CommitWriteback(line, m.Mem.Store(line), 0)
	}
	if m.Sheet.Get(stats.DRAMWrites) == 0 {
		t.Error("L3 overflow never spilled to DRAM")
	}
}

func TestReset(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0000)
	m.Home(line, 1)
	m.L2[1].Fill(line, m.Mem.Store(line), true)
	m.Reset()
	if m.L2[1].ValidLines() != 0 || m.Mem.Latest(line) != 0 || m.Pages.HomeIfPlaced(line) != -1 {
		t.Error("Reset incomplete")
	}
	t.Run("Acquire", testResetOnAcquire)
}

// testResetOnAcquire covers the reuse path: a released machine that ran
// (dirty caches, bank and fabric byte totals, placed pages, a trace and a
// fault injector) comes back from Acquire indistinguishable from New.
func testResetOnAcquire(t *testing.T) {
	Drain()
	t.Cleanup(Drain)
	var leases []bool
	SetLeaseHook(func(_ *Machine, leased bool) { leases = append(leases, leased) })
	t.Cleanup(func() { SetLeaseHook(nil) })
	cfg := smallCfg()
	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}
	m := must(Acquire(cfg, bounds, stats.New()))
	m.Trace = trace.New(0)
	m.SetFaults(faults.NewInjector(faults.Config{AckDropRate: 0.5}, m.Sheet, nil))
	line := mem.Addr(0x1000_0000)
	m.Home(line, 1)
	m.L1Fill(1, 2, line, m.Mem.Store(line))
	m.L2[1].Fill(line, m.Mem.Latest(line), true)
	m.BookL2(2, 64)
	m.L3Write(line, m.Mem.Latest(line), 0, 1)
	m.L3Read(line+0x100000, 3, 3)
	oldPages := m.Pages
	m.Release()

	sheet := stats.New()
	r := must(Acquire(cfg, bounds, sheet))
	if r != m {
		t.Fatal("Acquire built a new machine while an equal one was idle")
	}
	if r.Sheet != sheet || r.Trace != nil || r.Faults != nil {
		t.Errorf("run-scoped state not cleared: sheet reused=%v trace=%v faults=%v", r.Sheet != sheet, r.Trace, r.Faults)
	}
	if r.Pages == oldPages || r.Pages.HomeIfPlaced(line) != -1 {
		t.Error("page table recycled instead of rebuilt")
	}
	if oldPages.HomeIfPlaced(line) != 1 {
		t.Error("released page table was mutated; observers holding it would see another run's placements")
	}
	if r.Mem.Latest(line) != 0 || r.Mem.Committed(line) != 0 {
		t.Error("memory image not rebuilt")
	}
	for c := 0; c < cfg.NumChiplets; c++ {
		if r.L2BankBytes(c) != 0 || r.L3BankBytes(c) != 0 {
			t.Errorf("chiplet %d bank bytes survived reuse: L2 %d L3 %d", c, r.L2BankBytes(c), r.L3BankBytes(c))
		}
		if r.Fabric.PortBytes(c) != 0 || r.Fabric.DRAMBytes(c) != 0 {
			t.Errorf("chiplet %d fabric bytes survived reuse: port %d DRAM %d", c, r.Fabric.PortBytes(c), r.Fabric.DRAMBytes(c))
		}
		if r.L2[c].ValidLines() != 0 || r.L3[c].ValidLines() != 0 {
			t.Errorf("chiplet %d L2/L3 still warm", c)
		}
		for cu, l1 := range r.L1[c] {
			if l1.ValidLines() != 0 {
				t.Errorf("L1[%d][%d] still warm", c, cu)
			}
		}
	}
	if _, hit := r.L1Read(1, 2, line); hit {
		t.Error("L1 hit on a line filled by the previous run")
	}
	if r.Fabric.InterGPUBytes() != 0 || sheet.Get(stats.L1Accesses) != 1 {
		t.Error("fabric or sheet carried counts across runs")
	}
	r.Release()

	other := cfg
	other.L2SizeBytes *= 2
	if o := must(Acquire(other, bounds, stats.New())); o == m {
		t.Error("Acquire reused a machine built for a different configuration")
	} else {
		o.Release()
	}
	if fmt.Sprint(leases) != "[true false true false true false]" {
		t.Errorf("lease hook saw %v, want three acquire/release pairs", leases)
	}
}

// TestIdleListBound checks that Release keeps at most GOMAXPROCS idle
// machines, dropping the oldest.
func TestIdleListBound(t *testing.T) {
	Drain()
	t.Cleanup(Drain)
	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 1<<20}
	limit := runtime.GOMAXPROCS(0)
	var ms []*Machine
	for i := 0; i <= limit; i++ {
		ms = append(ms, must(Acquire(smallCfg(), bounds, stats.New())))
	}
	for _, m := range ms {
		m.Release()
	}
	if len(idle.list) != limit {
		t.Fatalf("idle list holds %d machines, want GOMAXPROCS=%d", len(idle.list), limit)
	}
	if idle.list[0] != ms[1] || idle.list[limit-1] != ms[limit] {
		t.Error("Release did not drop the oldest idle machine")
	}
	if m := must(Acquire(smallCfg(), bounds, stats.New())); m != ms[limit] {
		t.Error("Acquire did not take the most recently released machine")
	}
}

func TestCrossGPULatencyAndTraffic(t *testing.T) {
	g := smallCfg()
	g.NumChiplets = 4
	g.NumGPUs = 2 // chiplets {0,1} on GPU0, {2,3} on GPU1
	m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))

	if m.RemoteLatency(0, 1) != g.L2RemoteLatency {
		t.Error("on-package remote latency wrong")
	}
	if m.RemoteLatency(0, 2) != g.CrossGPULatency {
		t.Error("cross-GPU latency wrong")
	}

	line := mem.Addr(0x1000_0000)
	m.Home(line, 3) // homed on GPU1
	m.L3[3].Fill(line, 0, false)
	_, cy := m.L3Read(line, 0, 3) // accessed from GPU0
	if cy != g.CrossGPULatency {
		t.Errorf("cross-GPU L3 hit latency = %d, want %d", cy, g.CrossGPULatency)
	}
	if m.Sheet.Get(stats.FlitsInterGPU) == 0 {
		t.Error("cross-GPU transfer not counted on the inter-GPU link")
	}
	if m.Fabric.InterGPUBytes() == 0 {
		t.Error("inter-GPU byte accounting missing")
	}
	// Same-GPU remote transfers stay off the inter-GPU link.
	ig := m.Sheet.Get(stats.FlitsInterGPU)
	m.L3Read(line+0x100000, 2, 3)
	if m.Sheet.Get(stats.FlitsInterGPU) != ig {
		t.Error("same-GPU transfer leaked onto the inter-GPU link")
	}
}

// TestInterGPUMatchesConfig pins the fabric's chiplets-per-package mapping
// to config.GPU.GPUOf for single-package and MGPU configurations: every
// chiplet pair crosses the inter-GPU link, and pays CrossGPULatency, exactly
// when GPUOf puts the two on different packages.
func TestInterGPUMatchesConfig(t *testing.T) {
	for _, tc := range []struct{ chiplets, gpus int }{{1, 1}, {4, 1}, {7, 1}, {4, 2}, {8, 2}, {8, 4}, {6, 3}} {
		g := smallCfg()
		g.NumChiplets, g.NumGPUs = tc.chiplets, tc.gpus
		m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
		for from := 0; from < tc.chiplets; from++ {
			for to := 0; to < tc.chiplets; to++ {
				cross := g.GPUOf(from) != g.GPUOf(to)
				want := g.L2RemoteLatency
				if cross {
					want = g.CrossGPULatency
				}
				if m.Fabric.InterGPU(from, to) != cross || m.RemoteLatency(from, to) != want {
					t.Errorf("%d chiplets / %d GPUs, %d->%d: InterGPU %v latency %d, GPUOf says cross=%v latency %d",
						tc.chiplets, tc.gpus, from, to, m.Fabric.InterGPU(from, to), m.RemoteLatency(from, to), cross, want)
				}
			}
		}
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

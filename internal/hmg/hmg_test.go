package hmg

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

func smallCfg() config.GPU {
	g := config.Default(4)
	g.CUsPerChiplet = 4
	g.L1SizeBytes = 1 << 10
	g.L2SizeBytes = 64 << 10
	g.L3SizeBytes = 128 << 10
	return g
}

func newHMG(t *testing.T, opts Options) (*Protocol, *machine.Machine) {
	t.Helper()
	m := must(machine.New(smallCfg(), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 16<<20}, stats.New()))
	return must(New(m, opts)), m
}

func place(m *machine.Machine) (local, remote mem.Addr) {
	local = 0x1000_0000
	remote = 0x1000_0000 + 0x1000
	m.Pages.PlaceRange(mem.Range{Lo: local, Hi: local + 0x1000}, 0)
	m.Pages.PlaceRange(mem.Range{Lo: remote, Hi: remote + 0x1000}, 1)
	return
}

// --- directory unit tests -------------------------------------------------

// TestDirEntryLayout pins a directory entry to 8 host bytes.
func TestDirEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n != 8 {
		t.Fatalf("dirEntry is %d bytes, want 8", n)
	}
}

func TestDirectoryAddAndEvict(t *testing.T) {
	d := must(newDirectory(8, 2, 4, 64)) // 4 sets x 2 ways, 256 B groups
	g := d.group(0x1000_0040)
	if g != 0x1000_0000 {
		t.Errorf("group = %#x", g)
	}
	if _, ev := d.addSharer(g, 1); ev {
		t.Error("first insert evicted")
	}
	d.addSharer(g, 3)
	if d.sharers(g) != 0b1010 {
		t.Errorf("sharers = %b", d.sharers(g))
	}
	// Fill the set: groups mapping to the same set are 4*256 B apart.
	g2 := g + 4*256
	g3 := g + 8*256
	d.addSharer(g2, 0)
	evicted, was := d.addSharer(g3, 2)
	if !was || d.base(evicted) != g {
		t.Errorf("eviction = %+v (was %v), want LRU group %#x", evicted, was, g)
	}
}

func TestDirectoryClearOthers(t *testing.T) {
	d := must(newDirectory(8, 2, 4, 64))
	g := d.group(0)
	d.addSharer(g, 0)
	d.addSharer(g, 1)
	d.addSharer(g, 2)
	removed := d.clearOthers(g, 1)
	if removed != 0b101 {
		t.Errorf("removed = %b", removed)
	}
	if d.sharers(g) != 0b010 {
		t.Errorf("kept = %b", d.sharers(g))
	}
	if d.clearOthers(g, 1) != 0 {
		t.Error("second clear removed something")
	}
	// Removing the keeper's own bit invalidates the entry.
	if removed := d.clearOthers(g, 3); removed != 0b010 {
		t.Errorf("clearOthers(3) removed %b", removed)
	}
	if d.lookup(g) != nil {
		t.Error("empty entry not invalidated")
	}
	if d.groupRange(g).Size() != 256 {
		t.Error("group range size wrong")
	}
}

// --- protocol tests -------------------------------------------------------

func TestHMGCachesRemoteReads(t *testing.T) {
	p, m := newHMG(t, Options{})
	_, remote := place(m)
	r1 := p.Access(0, 0, remote, false, false)
	if r1.Level != coherence.LevelL3 {
		t.Errorf("cold remote read level = %v", r1.Level)
	}
	if m.L2[0].ValidLines() == 0 {
		t.Fatal("HMG must cache remote reads at the requester")
	}
	if m.L2[1].ValidLines() == 0 {
		t.Fatal("home L2 not filled")
	}
	if p.dirs[1].sharers(p.dirs[1].group(remote))&1 == 0 {
		t.Error("requester not registered as sharer at the home directory")
	}
	// Invalidate L1 to prove the L2 serves the repeat.
	m.InvalidateL1s(0)
	r2 := p.Access(0, 0, remote, false, false)
	if r2.Level != coherence.LevelL2 {
		t.Errorf("repeat remote read level = %v, want local L2", r2.Level)
	}
}

func TestHMGWriteThroughStore(t *testing.T) {
	p, m := newHMG(t, Options{})
	local, _ := place(m)
	p.Access(0, 0, local, true, false)
	if m.L2[0].DirtyLines() != 0 {
		t.Error("write-through L2 holds dirty lines")
	}
	if m.Mem.Committed(local) != 1 {
		t.Error("store not written through to memory")
	}
	if m.Sheet.Get(stats.DRAMWrites) != 1 {
		t.Error("write-through DRAM write not counted")
	}
}

func TestHMGStoreInvalidatesSharers(t *testing.T) {
	p, m := newHMG(t, Options{})
	_, remote := place(m)
	// Chiplet 0 and 2 cache the remote line.
	p.Access(0, 0, remote, false, false)
	p.Access(2, 0, remote, false, false)
	if m.L2[0].ValidLines() == 0 || m.L2[2].ValidLines() == 0 {
		t.Fatal("setup failed")
	}
	// Chiplet 3 writes it: both cached copies must be invalidated.
	p.Access(3, 0, remote, true, false)
	if _, _, hit := m.L2[0].Peek(remote); hit {
		t.Error("sharer 0 not invalidated")
	}
	if _, _, hit := m.L2[2].Peek(remote); hit {
		t.Error("sharer 2 not invalidated")
	}
	if m.Sheet.Get(stats.DirInvals) == 0 {
		t.Error("invalidation not counted")
	}
	// No stale read afterwards.
	m.InvalidateL1s(0)
	p.Access(0, 1, remote, false, false)
	if m.Mem.StaleReads() != 0 {
		t.Error("stale read after sharer invalidation")
	}
}

func TestHMGNoKernelBoundarySync(t *testing.T) {
	p, _ := newHMG(t, Options{})
	if plan := p.PreLaunch(&coherence.Launch{}); len(plan.Ops) != 0 {
		t.Error("HMG issued boundary ops")
	}
	if plan := p.Finalize(); len(plan.Ops) != 0 {
		t.Error("write-through HMG issued finalize ops")
	}
}

func TestHMGDirectoryEvictionInvalidates(t *testing.T) {
	p, m := newHMG(t, Options{DirEntries: 4, DirAssoc: 2, LinesPerEntry: 4})
	// Stream many distinct remote groups through chiplet 0 to overflow
	// chiplet 1's tiny directory.
	base := mem.Addr(0x1000_0000 + 0x1000)
	m.Pages.PlaceRange(mem.Range{Lo: base, Hi: base + 0x10000}, 1)
	for i := 0; i < 32; i++ {
		p.Access(0, 0, base+mem.Addr(i)*256, false, false)
	}
	if m.Sheet.Get(stats.DirEvictions) == 0 {
		t.Error("tiny directory never evicted")
	}
	if m.Sheet.Get(stats.DirInvals) == 0 {
		t.Error("directory evictions produced no invalidations")
	}
}

func TestHMGWriteBackVariant(t *testing.T) {
	p, m := newHMG(t, Options{WriteBack: true})
	local, _ := place(m)
	p.Access(0, 0, local, true, false)
	if m.L2[0].DirtyLines() == 0 {
		t.Error("write-back store left no dirty line at home")
	}
	if m.Mem.Committed(local) != 0 {
		t.Error("write-back store committed immediately")
	}
	if p.Name() != "HMG-WB" {
		t.Errorf("name = %s", p.Name())
	}
	if plan := p.Finalize(); len(plan.Ops) != 4 {
		t.Error("write-back finalize must flush all chiplets")
	}
	// Remote reads of the dirty home line see the newest data.
	p.Access(2, 0, local, false, false)
	if m.Mem.StaleReads() != 0 {
		t.Error("write-back remote read stale")
	}
}

func TestHMGAtomicAtHome(t *testing.T) {
	p, m := newHMG(t, Options{})
	_, remote := place(m)
	p.Access(0, 0, remote, false, false) // cache + share
	p.Access(2, 0, remote, true, true)   // atomic RMW by chiplet 2
	if m.Mem.Committed(remote) != 1 {
		t.Error("atomic not committed")
	}
	if _, _, hit := m.L2[0].Peek(remote); hit {
		t.Error("atomic write left a stale sharer copy")
	}
	m.InvalidateL1s(0)
	p.Access(0, 0, remote, false, false)
	if m.Mem.StaleReads() != 0 {
		t.Error("stale read after atomic")
	}
}

func TestHMGDefaultSizing(t *testing.T) {
	p, _ := newHMG(t, Options{})
	if p.dirs[0].entries() != 12*1024 {
		t.Errorf("directory entries = %d, want 12K (paper sizing)", p.dirs[0].entries())
	}
	if p.Name() != "HMG" {
		t.Errorf("name = %s", p.Name())
	}
}

// TestHMGRejectsBadGeometry: a directory too large to allocate, one smaller
// than a set, or a group span that is not a power of two is an ErrConfig
// from New and from Validate, before any directory is allocated.
func TestHMGRejectsBadGeometry(t *testing.T) {
	m := must(machine.New(smallCfg(), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 16<<20}, stats.New()))
	for _, opts := range []Options{
		{DirEntries: 2_000_000_000},
		{DirEntries: MaxDirEntries + 1},
		{DirEntries: 3},
		{LinesPerEntry: 3},
	} {
		if err := opts.Validate(m.Cfg.LineSize); !errors.Is(err, ErrConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrConfig", opts, err)
		}
		if _, err := New(m, opts); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) = %v, want ErrConfig", opts, err)
		}
	}
	if err := (Options{DirEntries: MaxDirEntries}).Validate(m.Cfg.LineSize); err != nil {
		t.Errorf("Validate at MaxDirEntries: %v", err)
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

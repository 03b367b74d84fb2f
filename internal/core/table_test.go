package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
)

const nChiplets = 4

func newTestTable() *Table {
	return mustTable(Config{Chiplets: nChiplets})
}

// mustTable builds a table for cfg, panicking on a config error (test
// configurations are static and known-good).
func mustTable(cfg Config) *Table {
	tb, err := NewTable(cfg)
	if err != nil {
		panic(err)
	}
	return tb
}

// view builds an ArgView for a structure of size bytes at base, accessed by
// the given chiplets over the given ranges (cacheable = declared).
func view(base mem.Addr, size uint64, mode kernels.AccessMode, ranges map[int]mem.Range) ArgView {
	v := ArgView{
		Base:   base,
		Full:   mem.Range{Lo: base, Hi: base + mem.Addr(size)},
		Mode:   mode,
		Ranges: make([]mem.RangeSet, nChiplets),
	}
	for c, r := range ranges {
		v.Ranges[c] = mem.NewRangeSet(r)
	}
	return v
}

// slices partitions [base, base+size) across all chiplets.
func slices(base mem.Addr, size uint64) map[int]mem.Range {
	m := map[int]mem.Range{}
	per := size / nChiplets
	for c := 0; c < nChiplets; c++ {
		lo := base + mem.Addr(uint64(c)*per)
		m[c] = mem.Range{Lo: lo, Hi: lo + mem.Addr(per)}
	}
	return m
}

func countOps(ops []Op) (flushes, invals int) {
	for _, op := range ops {
		if op.Flush {
			flushes++
		} else {
			invals++
		}
	}
	return
}

const base0 mem.Addr = 0x1000_0000

func TestFirstAccessGeneratesNoOps(t *testing.T) {
	tb := newTestTable()
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 4096*4, kernels.Read, slices(base0, 4096*4))})
	if len(ops) != 0 {
		t.Fatalf("first access produced %d ops", len(ops))
	}
	for c := 0; c < nChiplets; c++ {
		if tb.StateOf(base0, c) != Valid {
			t.Errorf("chiplet %d state = %v, want Valid", c, tb.StateOf(base0, c))
		}
	}
}

// TestStayInDirtyElision: a chiplet re-accessing its own dirty partition
// must trigger no synchronization (the paper's "stay in Dirty" rule).
func TestStayInDirtyElision(t *testing.T) {
	tb := newTestTable()
	w := view(base0, 1<<20, kernels.ReadWrite, slices(base0, 1<<20))
	for i := 0; i < 5; i++ {
		if ops := tb.OnKernelLaunch([]ArgView{w}); len(ops) != 0 {
			t.Fatalf("iteration %d produced %d ops", i, len(ops))
		}
	}
	if tb.StateOf(base0, 2) != Dirty {
		t.Errorf("state = %v, want Dirty", tb.StateOf(base0, 2))
	}
	if tb.FlushesIssue != 0 || tb.InvalsIssue != 0 {
		t.Error("elision counters nonzero")
	}
}

// TestLazyReleaseOnConsumer: data dirty on chiplet 0 read by chiplet 1
// triggers a release (flush) of chiplet 0 at the consumer's launch.
func TestLazyReleaseOnConsumer(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, map[int]mem.Range{0: whole})})
	if tb.StateOf(base0, 0) != Dirty {
		t.Fatal("producer not Dirty")
	}
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, map[int]mem.Range{1: whole})})
	fl, inv := countOps(ops)
	if fl != 1 || inv != 0 {
		t.Fatalf("ops = %d flushes, %d invals; want 1, 0", fl, inv)
	}
	if ops[0].Chiplet != 0 {
		t.Errorf("flush targeted chiplet %d", ops[0].Chiplet)
	}
	// After the flush the producer retains clean (Valid) copies; the
	// reader becomes Valid too.
	if tb.StateOf(base0, 0) != Valid || tb.StateOf(base0, 1) != Valid {
		t.Errorf("states after release: c0=%v c1=%v",
			tb.StateOf(base0, 0), tb.StateOf(base0, 1))
	}
}

// TestValidToStaleToAcquire: a remote write marks a valid chiplet Stale
// without an immediate operation; the acquire is deferred until that
// chiplet accesses the structure again.
func TestValidToStaleToAcquire(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	// Chiplet 0 reads: Valid.
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, map[int]mem.Range{0: whole})})
	// Chiplet 1 writes the same range: no op for chiplet 0 yet (lazy).
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, map[int]mem.Range{1: whole})})
	if len(ops) != 0 {
		t.Fatalf("remote write produced %d immediate ops", len(ops))
	}
	if tb.StateOf(base0, 0) != Stale {
		t.Fatalf("chiplet 0 state = %v, want Stale", tb.StateOf(base0, 0))
	}
	// Chiplet 0 reads again: acquire for chiplet 0, plus release of the
	// writer chiplet 1 (its data is dirty and about to be consumed).
	ops = tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, map[int]mem.Range{0: whole})})
	var sawInval0, sawFlush1 bool
	for _, op := range ops {
		if !op.Flush && op.Chiplet == 0 {
			sawInval0 = true
		}
		if op.Flush && op.Chiplet == 1 {
			sawFlush1 = true
		}
	}
	if !sawInval0 || !sawFlush1 {
		t.Fatalf("ops = %+v; want acquire(0) and release(1)", ops)
	}
}

// TestDisjointPartitionsNeverConflict: per-chiplet partitioned writes with
// disjoint ranges run the whole schedule without synchronization.
func TestDisjointPartitionsNeverConflict(t *testing.T) {
	tb := newTestTable()
	in := view(base0, 1<<20, kernels.Read, slices(base0, 1<<20))
	out := view(base0+1<<20, 1<<20, kernels.ReadWrite, slices(base0+1<<20, 1<<20))
	for i := 0; i < 6; i++ {
		if ops := tb.OnKernelLaunch([]ArgView{in, out}); len(ops) != 0 {
			t.Fatalf("iteration %d produced ops: %+v", i, ops)
		}
	}
}

// TestSameLaunchConflictAcquires: when every chiplet both caches and writes
// overlapping ranges in the same kernel (mode-only annotations), the
// acquire cannot be deferred.
func TestSameLaunchConflictAcquires(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	all := map[int]mem.Range{0: whole, 1: whole, 2: whole, 3: whole}
	// First launch: nothing tracked yet, no ops.
	if ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, all)}); len(ops) != 0 {
		t.Fatalf("first launch ops: %+v", ops)
	}
	// Second launch: everyone's tracked copies conflict with everyone's
	// writes; all four chiplets must be invalidated now.
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, all)})
	_, inv := countOps(ops)
	if inv != nChiplets {
		t.Fatalf("invals = %d, want %d (ops %+v)", inv, nChiplets, ops)
	}
}

// TestAtomicScatterDefersAcquire: atomic scatter args (empty cacheable set)
// never trigger same-launch acquires; the staleness is recorded and the
// acquire waits for the next caching access.
func TestAtomicScatterDefersAcquire(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	all := map[int]mem.Range{0: whole, 1: whole, 2: whole, 3: whole}

	// Kernel A reads the structure linearly (fills caches): Valid.
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, slices(base0, 1<<20))})

	// Kernel B scatters atomically: declared R/W everywhere, cacheable
	// empty. No immediate ops; previously-Valid chiplets degrade to Stale.
	scatter := view(base0, 1<<20, kernels.ReadWrite, all)
	scatter.Cacheable = make([]mem.RangeSet, nChiplets)
	if ops := tb.OnKernelLaunch([]ArgView{scatter}); len(ops) != 0 {
		t.Fatalf("atomic scatter produced immediate ops: %+v", ops)
	}
	for c := 0; c < nChiplets; c++ {
		if tb.StateOf(base0, c) != Stale {
			t.Fatalf("chiplet %d = %v, want Stale", c, tb.StateOf(base0, c))
		}
	}

	// Kernel C reads linearly again: every reader must acquire first.
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, slices(base0, 1<<20))})
	_, inv := countOps(ops)
	if inv != nChiplets {
		t.Fatalf("deferred acquires = %d, want %d", inv, nChiplets)
	}
}

// TestReadSharingStaysValid: concurrent readers on all chiplets never
// synchronize ("stay in Valid on remote accesses").
func TestReadSharingStaysValid(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	all := map[int]mem.Range{0: whole, 1: whole, 2: whole, 3: whole}
	for i := 0; i < 4; i++ {
		if ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, all)}); len(ops) != 0 {
			t.Fatalf("read sharing produced ops: %+v", ops)
		}
	}
	if tb.StateOf(base0, 3) != Valid {
		t.Error("reader not Valid")
	}
}

func TestDedupeMergesAliasedArgs(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	r := view(base0, 1<<20, kernels.Read, map[int]mem.Range{0: whole})
	w := view(base0, 1<<20, kernels.ReadWrite, map[int]mem.Range{0: whole})
	tb.OnKernelLaunch([]ArgView{r, w})
	if tb.Len() != 1 {
		t.Fatalf("aliased args created %d entries", tb.Len())
	}
	if tb.StateOf(base0, 0) != Dirty {
		t.Errorf("merged mode not conservative: %v", tb.StateOf(base0, 0))
	}
}

func TestCoarseningMergesNearestStructures(t *testing.T) {
	tb := newTestTable()
	var args []ArgView
	for i := 0; i < 12; i++ {
		b := base0 + mem.Addr(i)*0x10000
		args = append(args, view(b, 0x8000, kernels.Read, slices(b, 0x8000)))
	}
	tb.OnKernelLaunch(args)
	if tb.Coarsenings != 1 {
		t.Errorf("coarsenings = %d", tb.Coarsenings)
	}
	if tb.Len() > 8 {
		t.Errorf("post-coarsening entries = %d, want <= 8", tb.Len())
	}
}

// TestCoarsenedConservativeMode: coarsening a read-only and a written
// structure must track the combination as written.
func TestCoarsenedConservativeMode(t *testing.T) {
	tb := mustTable(Config{Chiplets: nChiplets, MaxDataStructures: 2})
	whole := func(b mem.Addr) map[int]mem.Range {
		return map[int]mem.Range{0: {Lo: b, Hi: b + 0x1000}}
	}
	args := []ArgView{
		view(base0, 0x1000, kernels.Read, whole(base0)),
		view(base0+0x1000, 0x1000, kernels.ReadWrite, whole(base0+0x1000)),
		view(base0+0x2000, 0x1000, kernels.Read, whole(base0+0x2000)),
	}
	tb.OnKernelLaunch(args)
	// A later consumer on another chiplet overlapping the read-only part
	// must still see a flush: the merged row is conservatively R/W.
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 0x3000, kernels.Read,
		map[int]mem.Range{1: {Lo: base0, Hi: base0 + 0x3000}})})
	if fl, _ := countOps(ops); fl != 1 {
		t.Fatalf("coarsened dirty row not flushed: %+v", ops)
	}
}

// TestCapacityEvictionSynchronizesVictim: evicting a Dirty row must write
// its data back AND drop the chiplet's copies — a flush alone would leave
// clean untracked lines in that L2, which a later remote write could stale
// with no table row left to trigger the deferred acquire. The machine's
// invalidation writes dirty lines back before dropping them, so a single
// invalidate op (counted as both a flush and an inval) does the job.
func TestCapacityEvictionSynchronizesVictim(t *testing.T) {
	tb := mustTable(Config{Chiplets: nChiplets, MaxDataStructures: 8, MaxEntries: 2})
	r0 := mem.Range{Lo: base0, Hi: base0 + 0x1000}
	tb.OnKernelLaunch([]ArgView{view(base0, 0x1000, kernels.ReadWrite, map[int]mem.Range{0: r0})})
	b1 := base0 + 0x100000
	tb.OnKernelLaunch([]ArgView{view(b1, 0x1000, kernels.Read,
		map[int]mem.Range{1: {Lo: b1, Hi: b1 + 0x1000}})})
	preFlush, preInval := tb.FlushesIssue, tb.InvalsIssue
	// Third structure forces eviction of the LRU row (the dirty one).
	b2 := base0 + 0x200000
	ops := tb.OnKernelLaunch([]ArgView{view(b2, 0x1000, kernels.Read,
		map[int]mem.Range{2: {Lo: b2, Hi: b2 + 0x1000}})})
	var synced0 bool
	for _, op := range ops {
		if op.Chiplet == 0 && !op.Flush {
			synced0 = true // invalidate subsumes the flush
		}
	}
	if !synced0 {
		t.Fatalf("evicted dirty row not invalidated: %+v", ops)
	}
	if tb.FlushesIssue != preFlush+1 || tb.InvalsIssue != preInval+1 {
		t.Errorf("eviction accounting: flushes %d->%d invals %d->%d, want one each",
			preFlush, tb.FlushesIssue, preInval, tb.InvalsIssue)
	}
	if tb.Evictions != 1 {
		t.Errorf("evictions = %d", tb.Evictions)
	}
	if tb.Len() > 2 {
		t.Errorf("capacity exceeded: %d", tb.Len())
	}
}

// TestCapacityEvictionDropsValidCopies is the regression test for the
// retained-copy hazard: evicting a Valid row must produce exactly one
// invalidate op for the holder (not two, and not a bare flush), so no
// chiplet retains copies the table no longer tracks.
func TestCapacityEvictionDropsValidCopies(t *testing.T) {
	tb := mustTable(Config{Chiplets: nChiplets, MaxDataStructures: 8, MaxEntries: 2})
	r0 := mem.Range{Lo: base0, Hi: base0 + 0x1000}
	tb.OnKernelLaunch([]ArgView{view(base0, 0x1000, kernels.Read, map[int]mem.Range{0: r0})})
	b1 := base0 + 0x100000
	tb.OnKernelLaunch([]ArgView{view(b1, 0x1000, kernels.Read,
		map[int]mem.Range{1: {Lo: b1, Hi: b1 + 0x1000}})})
	preInval := tb.InvalsIssue
	b2 := base0 + 0x200000
	ops := tb.OnKernelLaunch([]ArgView{view(b2, 0x1000, kernels.Read,
		map[int]mem.Range{2: {Lo: b2, Hi: b2 + 0x1000}})})
	var invals0 int
	for _, op := range ops {
		if op.Chiplet == 0 {
			if op.Flush {
				t.Fatalf("clean victim flushed: %+v", op)
			}
			invals0++
		}
	}
	if invals0 != 1 {
		t.Fatalf("victim invalidate ops = %d, want exactly 1 (ops %+v)", invals0, ops)
	}
	if tb.InvalsIssue != preInval+1 {
		t.Errorf("invals counted %d times, want once", tb.InvalsIssue-preInval)
	}
}

func TestRangeOpsCarryRanges(t *testing.T) {
	tb := mustTable(Config{Chiplets: nChiplets, RangeOps: true})
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, map[int]mem.Range{0: whole})})
	ops := tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.Read, map[int]mem.Range{1: whole})})
	if len(ops) != 1 || ops[0].Ranges.Empty() {
		t.Fatalf("range ops missing ranges: %+v", ops)
	}
	if !ops[0].Ranges.Overlaps(whole) {
		t.Error("op ranges do not cover the structure")
	}
}

func TestFinalizeFlushesDirtyAndClears(t *testing.T) {
	tb := newTestTable()
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, slices(base0, 1<<20))})
	ops := tb.FinalizeOps()
	fl, inv := countOps(ops)
	if fl != nChiplets || inv != 0 {
		t.Fatalf("finalize ops = %d flushes %d invals", fl, inv)
	}
	if tb.Len() != 0 {
		t.Error("finalize did not clear the table")
	}
}

func TestEntryRemovedWhenAllNotPresent(t *testing.T) {
	tb := newTestTable()
	whole := mem.Range{Lo: base0, Hi: base0 + 1<<20}
	// Chiplet 0 writes S; chiplet 1 writes S (same-launch pattern over two
	// launches): the second launch invalidates chiplet 0 lazily.
	tb.OnKernelLaunch([]ArgView{view(base0, 1<<20, kernels.ReadWrite, map[int]mem.Range{0: whole})})
	// Another structure's kernel whose whole-cache ops wipe chiplet 0.
	b1 := base0 + 0x200000
	tb.OnKernelLaunch([]ArgView{view(b1, 0x1000, kernels.ReadWrite,
		map[int]mem.Range{0: {Lo: b1, Hi: b1 + 0x1000}})})
	tb.OnKernelLaunch([]ArgView{view(b1, 0x1000, kernels.Read,
		map[int]mem.Range{1: {Lo: b1, Hi: b1 + 0x1000}})})
	// The flush of chiplet 0 (for b1) cleaned structure base0 too:
	// Dirty -> Valid, entry retained.
	if tb.StateOf(base0, 0) != Valid {
		t.Fatalf("whole-cache flush side effect missing: %v", tb.StateOf(base0, 0))
	}
}

// TestRandomScheduleInvariants drives the table with random launches and
// checks structural invariants. Functional coherence is covered end to end
// by the simulator's version checker; here we pin table-local properties.
func TestRandomScheduleInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(12345))
	tb := mustTable(Config{Chiplets: nChiplets, MaxDataStructures: 4, MaxEntries: 8})
	bases := []mem.Addr{0x1000_0000, 0x1100_0000, 0x1200_0000, 0x1300_0000,
		0x1400_0000, 0x1500_0000, 0x1600_0000, 0x1700_0000, 0x1800_0000, 0x1900_0000}
	for i := 0; i < 2000; i++ {
		var args []ArgView
		for a := 0; a < 1+rnd.Intn(4); a++ {
			b := bases[rnd.Intn(len(bases))]
			mode := kernels.Read
			if rnd.Intn(2) == 0 {
				mode = kernels.ReadWrite
			}
			ranges := map[int]mem.Range{}
			for c := 0; c < nChiplets; c++ {
				if rnd.Intn(2) == 0 {
					lo := b + mem.Addr(rnd.Intn(8))*0x1000
					ranges[c] = mem.Range{Lo: lo, Hi: lo + mem.Addr(1+rnd.Intn(8))*0x1000}
				}
			}
			if len(ranges) == 0 {
				ranges[rnd.Intn(nChiplets)] = mem.Range{Lo: b, Hi: b + 0x1000}
			}
			args = append(args, view(b, 0x10000, mode, ranges))
		}
		ops := tb.OnKernelLaunch(args)
		for _, op := range ops {
			if op.Chiplet < 0 || op.Chiplet >= nChiplets {
				t.Fatalf("op targets invalid chiplet %d", op.Chiplet)
			}
		}
		if tb.Len() > 8+4 {
			t.Fatalf("table grew past capacity slack: %d", tb.Len())
		}
	}
	if tb.PeakEntries == 0 {
		t.Error("peak never recorded")
	}
	tb.FinalizeOps()
	if tb.Len() != 0 {
		t.Error("finalize left entries")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		NotPresent: "NotPresent", Valid: "Valid", Dirty: "Dirty", Stale: "Stale",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
	tb := newTestTable()
	tb.OnKernelLaunch([]ArgView{view(base0, 0x1000, kernels.Read,
		map[int]mem.Range{0: {Lo: base0, Hi: base0 + 0x1000}})})
	if tb.String() == "" {
		t.Error("table String empty")
	}
}

func TestNewTableRejectsNoChiplets(t *testing.T) {
	tb, err := NewTable(Config{Chiplets: 0})
	if tb != nil || !errors.Is(err, ErrNoChiplets) {
		t.Fatalf("NewTable(Chiplets: 0) = %v, %v; want nil, ErrNoChiplets", tb, err)
	}
}

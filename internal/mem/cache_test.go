package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// tiny returns a 4-set, 2-way cache with 64 B lines (512 B total).
func tiny() *Cache { return must(NewCache("t", 512, 2, 64)) }

func TestCacheGeometry(t *testing.T) {
	c := must(NewCache("l2", 8<<20, 32, 64))
	if c.Sets() != 4096 || c.Assoc() != 32 || c.Lines() != 131072 {
		t.Errorf("geometry: sets=%d assoc=%d lines=%d", c.Sets(), c.Assoc(), c.Lines())
	}
	// Non-power-of-two set count (16 MB / 6 chiplets style).
	odd := must(NewCache("bank", 192*64*3, 3, 64))
	if odd.Sets() != 192 {
		t.Errorf("odd sets = %d, want 192", odd.Sets())
	}
	odd.Fill(0, 1, false)
	if _, hit := odd.Read(0); !hit {
		t.Error("fill+read miss on non-pow2 cache")
	}
}

// TestWayLayout pins a way to 8 host bytes: a 31-bit line index with the
// dirty flag, and the version.
func TestWayLayout(t *testing.T) {
	if n := unsafe.Sizeof(way{}); n != 8 {
		t.Fatalf("way is %d bytes, want 8", n)
	}
	c := must(NewCache("l2", 8<<20, 32, 64))
	if c.WayBytes() != 131072*8 {
		t.Errorf("WayBytes = %d, want %d", c.WayBytes(), 131072*8)
	}
}

func TestCacheReadFillWrite(t *testing.T) {
	c := tiny()
	if _, hit := c.Read(0); hit {
		t.Error("cold read hit")
	}
	c.Fill(0, 7, false)
	if ver, hit := c.Read(0); !hit || ver != 7 {
		t.Errorf("read after fill: ver=%d hit=%v", ver, hit)
	}
	if c.DirtyLines() != 0 {
		t.Error("clean fill counted dirty")
	}
	if !c.Write(0, 8) {
		t.Error("write to present line reported miss")
	}
	if c.DirtyLines() != 1 {
		t.Errorf("dirty lines = %d, want 1", c.DirtyLines())
	}
	if ver, _ := c.Read(0); ver != 8 {
		t.Errorf("ver after write = %d", ver)
	}
	if c.Write(64, 1) {
		t.Error("write miss reported hit")
	}
	if !c.UpdateClean(0, 9) || c.DirtyLines() != 0 {
		t.Error("UpdateClean did not clean the line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := tiny() // 4 sets x 2 ways; lines 0, 256, 512... map to set 0
	set0 := func(i int) Addr { return Addr(i * 4 * 64) }
	c.Fill(set0(0), 1, false)
	c.Fill(set0(1), 2, true)
	c.Read(set0(0)) // promote 0: LRU is now set0(1)
	ev := c.Fill(set0(2), 3, false)
	if !ev.Evicted || ev.Line != set0(1) || !ev.Dirty || ev.Ver != 2 {
		t.Errorf("eviction = %+v, want dirty line %#x", ev, set0(1))
	}
	if _, hit := c.Read(set0(0)); !hit {
		t.Error("MRU line evicted")
	}
	if c.DirtyLines() != 0 {
		t.Errorf("dirty count after evicting dirty line = %d", c.DirtyLines())
	}
}

func TestCacheFillExisting(t *testing.T) {
	c := tiny()
	c.Fill(0, 1, true)
	ev := c.Fill(0, 2, false)
	if ev.Evicted {
		t.Error("refill of existing line evicted")
	}
	if ver, dirty, _ := c.Peek(0); ver != 2 || dirty {
		t.Errorf("refill: ver=%d dirty=%v", ver, dirty)
	}
	if c.ValidLines() != 1 {
		t.Errorf("valid lines = %d", c.ValidLines())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := tiny()
	c.Fill(0, 1, true)
	c.Fill(64, 2, false)
	wasDirty, present := c.Invalidate(0)
	if !wasDirty || !present {
		t.Error("Invalidate(0) should report dirty present line")
	}
	if _, p := c.Invalidate(0); p {
		t.Error("double invalidate reported present")
	}
	if n := c.InvalidateAll(); n != 1 {
		t.Errorf("InvalidateAll = %d, want 1", n)
	}
	if c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Error("counts nonzero after InvalidateAll")
	}
}

func TestCacheFlush(t *testing.T) {
	c := tiny()
	c.Fill(0, 3, true)
	c.Fill(64, 4, false)
	c.Fill(128, 5, true)
	var committed []Addr
	n := c.FlushAll(func(line Addr, ver uint32) { committed = append(committed, line) })
	if n != 2 || len(committed) != 2 {
		t.Errorf("flushed %d lines", n)
	}
	if c.DirtyLines() != 0 {
		t.Error("dirty after flush")
	}
	// Clean copies retained.
	if _, hit := c.Read(0); !hit {
		t.Error("flush dropped the line")
	}
}

func TestCacheRangeOpsMatchFullWalk(t *testing.T) {
	// The small-range fast path must behave exactly like the full walk.
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := must(NewCache("a", 64*64*4, 4, 64))
		b := must(NewCache("b", 64*64*4, 4, 64))
		for i := 0; i < 300; i++ {
			line := Addr(rnd.Intn(2048)) * 64
			dirty := rnd.Intn(2) == 0
			a.Fill(line, uint32(i), dirty)
			b.Fill(line, uint32(i), dirty)
		}
		lo := Addr(rnd.Intn(1024)) * 64
		small := NewRangeSet(Range{lo, lo + 4*64}) // forces per-line probes
		big := NewRangeSet(Range{0, 2048 * 64})    // forces full walk

		var fa, fb int
		fa = a.FlushRanges(small, func(Addr, uint32) {})
		fb = b.FlushRanges(small, func(Addr, uint32) {})
		if fa != fb {
			t.Fatalf("flush small mismatch %d vs %d", fa, fb)
		}
		if na, nb := a.InvalidateRanges(small), b.InvalidateRanges(small); na != nb {
			t.Fatalf("invalidate small mismatch %d vs %d", na, nb)
		}
		if na, nb := a.InvalidateRanges(big), b.InvalidateRanges(big); na != nb {
			t.Fatalf("invalidate big mismatch %d vs %d", na, nb)
		}
		if a.ValidLines() != 0 || b.ValidLines() != 0 {
			t.Fatal("full-range invalidate left lines")
		}
	}
}

func TestCacheValidInRanges(t *testing.T) {
	c := tiny()
	c.Fill(0, 1, false)
	c.Fill(64, 1, false)
	c.Fill(128, 1, false)
	if n := c.ValidInRanges(NewRangeSet(Range{0, 128})); n != 2 {
		t.Errorf("ValidInRanges = %d, want 2", n)
	}
}

// Property: after arbitrary operation sequences, the valid/dirty counters
// match a brute-force count over each set's valid prefix (as the per-set
// record defines it), and the cache never exceeds its capacity. The mix
// includes the whole-cache and range invalidations whose bookkeeping is the
// epoch bump and the hole-closing shift.
func TestCacheCountersInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	c := must(NewCache("p", 8*64*2, 2, 64))
	lines := func() (valid, dirty int) {
		for si, r := range c.sets {
			if r.epoch != c.epoch {
				continue
			}
			if int(r.n) > c.assoc {
				t.Fatalf("set %d: record counts %d ways, assoc %d", si, r.n, c.assoc)
			}
			for _, w := range c.ways[si*c.assoc : si*c.assoc+int(r.n)] {
				valid++
				if w.dirty() {
					dirty++
				}
			}
		}
		return
	}
	for i := 0; i < 5000; i++ {
		line := Addr(rnd.Intn(64)) * 64
		switch rnd.Intn(10) {
		case 0:
			c.Read(line)
		case 1:
			c.Fill(line, uint32(i), rnd.Intn(2) == 0)
		case 2:
			c.Write(line, uint32(i))
		case 3:
			c.Invalidate(line)
		case 4:
			c.FlushRanges(NewRangeSet(Range{line, line + 256}), func(Addr, uint32) {})
		case 5:
			c.UpdateClean(line, uint32(i))
		case 6:
			c.InvalidateRanges(NewRangeSet(Range{line, line + 256})) // per-line probes
		case 7:
			c.InvalidateRanges(NewRangeSet(Range{line, line + 16*64})) // full walk
		case 8:
			if rnd.Intn(4) == 0 {
				c.InvalidateAll()
			}
		case 9:
			if rnd.Intn(4) == 0 {
				c.FlushAll(func(Addr, uint32) {})
			}
		}
		v, d := lines()
		if v != c.ValidLines() || d != c.DirtyLines() {
			t.Fatalf("iter %d: counters valid=%d/%d dirty=%d/%d",
				i, c.ValidLines(), v, c.DirtyLines(), d)
		}
		if v > c.Lines() {
			t.Fatalf("capacity exceeded")
		}
	}
}

// Property: dirty data is never silently lost — every dirty line is either
// still dirty in the cache or was passed to a commit callback.
func TestCacheNoSilentDirtyLoss(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	c := must(NewCache("d", 4*64*2, 2, 64))
	latest := map[Addr]uint32{}    // newest dirty version written
	committed := map[Addr]uint32{} // newest version committed
	commit := func(line Addr, ver uint32) {
		if committed[line] < ver {
			committed[line] = ver
		}
	}
	for i := 1; i < 3000; i++ {
		line := Addr(rnd.Intn(32)) * 64
		switch rnd.Intn(4) {
		case 0:
			if ev := c.Fill(line, uint32(i), true); ev.Evicted && ev.Dirty {
				commit(ev.Line, ev.Ver)
			}
			latest[line] = uint32(i)
		case 1:
			if c.Write(line, uint32(i)) {
				latest[line] = uint32(i)
			}
		case 2:
			c.FlushAll(commit)
		case 3:
			c.FlushRanges(NewRangeSet(Range{line, line + 512}), commit)
		}
	}
	c.FlushAll(commit)
	for line, ver := range latest {
		if committed[line] < ver {
			t.Fatalf("line %#x: newest dirty version %d never committed (have %d)",
				line, ver, committed[line])
		}
	}
}

// TestCacheEpochWrap drives a cache's 16-bit epoch past 0xFFFF with
// resident and dirty lines in the way array. InvalidateAll only bumps the
// epoch, so set records written at epoch 1 stay in place, stale, until the
// epoch wraps back to 1; the wrap must really clear the records or their
// ways come back valid. (A reused machine bumps every L1's epoch at each kernel
// boundary, so a long-lived process reaches the wrap.) Afterwards the cache
// must hit, miss, evict and flush exactly like a fresh one.
func TestCacheEpochWrap(t *testing.T) {
	const sets, assoc = 8, 2
	newCache := func() *Cache { return must(NewCache("w", sets*assoc*64, assoc, 64)) }
	c := newCache()
	// Epoch 1: every way resident, every other line dirty.
	for i := 0; i < sets*assoc; i++ {
		c.Fill(Addr(i)*64, uint32(i+1), i%2 == 0)
	}
	// Later epochs touch only sets 0 and 1, leaving the epoch-1 ways of
	// sets 2..7 in place through the wrap.
	for c.epoch != ^uint16(0) {
		if c.epoch%1024 == 0 {
			c.Fill(Addr(c.epoch%4)*sets*64, uint32(c.epoch), true)
			c.Fill(Addr(c.epoch%4)*sets*64+64, uint32(c.epoch), false)
		}
		c.InvalidateAll()
	}
	c.Fill(0, 7, true)
	c.Fill(sets*64+64, 8, true)
	if n := c.InvalidateAll(); n != 2 || c.epoch != 1 {
		t.Fatalf("wrap: InvalidateAll = %d at epoch %d, want 2 at epoch 1", n, c.epoch)
	}

	fresh := newCache()
	rnd := rand.New(rand.NewSource(11))
	var gotFlush, wantFlush []Addr
	for i := 0; i < 4000; i++ {
		line := Addr(rnd.Intn(4*sets*assoc)) * 64
		switch op := rnd.Intn(6); op {
		case 0:
			gv, gh := c.Read(line)
			wv, wh := fresh.Read(line)
			if gv != wv || gh != wh {
				t.Fatalf("op %d: Read(%#x) = (%d, %v), fresh cache (%d, %v)", i, line, gv, gh, wv, wh)
			}
		case 1:
			dirty := rnd.Intn(2) == 0
			if g, w := c.Fill(line, uint32(i), dirty), fresh.Fill(line, uint32(i), dirty); g != w {
				t.Fatalf("op %d: Fill(%#x) evicted %+v, fresh cache %+v", i, line, g, w)
			}
		case 2:
			if g, w := c.Write(line, uint32(i)), fresh.Write(line, uint32(i)); g != w {
				t.Fatalf("op %d: Write(%#x) = %v, fresh cache %v", i, line, g, w)
			}
		case 3:
			gd, gp := c.Invalidate(line)
			wd, wp := fresh.Invalidate(line)
			if gd != wd || gp != wp {
				t.Fatalf("op %d: Invalidate(%#x) = (%v, %v), fresh cache (%v, %v)", i, line, gd, gp, wd, wp)
			}
		case 4:
			gotFlush, wantFlush = gotFlush[:0], wantFlush[:0]
			c.FlushAll(func(l Addr, _ uint32) { gotFlush = append(gotFlush, l) })
			fresh.FlushAll(func(l Addr, _ uint32) { wantFlush = append(wantFlush, l) })
			if fmt.Sprint(gotFlush) != fmt.Sprint(wantFlush) {
				t.Fatalf("op %d: FlushAll wrote back %v, fresh cache %v", i, gotFlush, wantFlush)
			}
		case 5:
			if rnd.Intn(8) == 0 {
				if g, w := c.InvalidateAll(), fresh.InvalidateAll(); g != w {
					t.Fatalf("op %d: InvalidateAll = %d, fresh cache %d", i, g, w)
				}
			}
		}
		if c.ValidLines() != fresh.ValidLines() || c.DirtyLines() != fresh.DirtyLines() {
			t.Fatalf("op %d: valid/dirty %d/%d, fresh cache %d/%d",
				i, c.ValidLines(), c.DirtyLines(), fresh.ValidLines(), fresh.DirtyLines())
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

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name                         string
		count, size, assoc, lineSize int
	}{
		{"zero size", 1, 0, 4, 64},
		{"negative assoc", 1, 4096, -1, 64},
		{"zero line size", 1, 4096, 4, 0},
		{"assoc past 16 bits", 1, 1 << 16 * 64, 1 << 16, 64},
		{"size not a multiple of assoc*lineSize", 1, 1000, 4, 64},
		{"line size not a power of two", 1, 4 * 48 * 2, 4, 48},
		{"zero array count", 0, 4096, 4, 64},
		{"negative array count", -1, 4096, 4, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.count == 1 {
				if c, err := NewCache("bad", tc.size, tc.assoc, tc.lineSize); !errors.Is(err, ErrGeometry) || c != nil {
					t.Errorf("NewCache = %v, %v; want nil, ErrGeometry", c, err)
				}
			}
			if cs, err := NewCacheArray("bad", tc.count, tc.size, tc.assoc, tc.lineSize); !errors.Is(err, ErrGeometry) || cs != nil {
				t.Errorf("NewCacheArray = %v, %v; want nil, ErrGeometry", cs, err)
			}
		})
	}
}

package mem

import (
	"errors"
	"testing"
)

func TestPageTableFirstTouch(t *testing.T) {
	p := must(NewPageTable(0x1000, 64<<10, 4096))
	if p.Pages() != 16 {
		t.Fatalf("pages = %d, want 16", p.Pages())
	}
	if h := p.Home(0x1000, 2); h != 2 {
		t.Errorf("first touch home = %d, want 2", h)
	}
	if h := p.Home(0x1FFF, 3); h != 2 {
		t.Errorf("same page re-homed: %d", h)
	}
	if h := p.Home(0x2000, 3); h != 3 {
		t.Errorf("next page home = %d, want 3", h)
	}
	if h := p.HomeIfPlaced(0x3000); h != -1 {
		t.Errorf("untouched page home = %d, want -1", h)
	}
}

func TestPageTablePlaceRange(t *testing.T) {
	p := must(NewPageTable(0, 64<<10, 4096))
	n := p.PlaceRange(Range{Lo: 0x1000, Hi: 0x3000}, 1)
	if n != 2 {
		t.Errorf("placed %d pages, want 2", n)
	}
	// Already placed pages are skipped.
	if n := p.PlaceRange(Range{Lo: 0x1000, Hi: 0x4000}, 2); n != 1 {
		t.Errorf("re-place placed %d, want 1", n)
	}
	if p.HomeIfPlaced(0x1000) != 1 || p.HomeIfPlaced(0x3000) != 2 {
		t.Error("placement homes wrong")
	}
	if p.PlaceRange(Range{}, 0) != 0 {
		t.Error("empty range placed pages")
	}
	p.Reset()
	if p.HomeIfPlaced(0x1000) != -1 {
		t.Error("Reset did not clear")
	}
}

func TestPageTablePartialLastPage(t *testing.T) {
	p := must(NewPageTable(0, 10000, 4096)) // 3 pages, last partial
	if p.Pages() != 3 {
		t.Fatalf("pages = %d", p.Pages())
	}
	p.PlaceRange(Range{Lo: 8192, Hi: 10000}, 1)
	if p.HomeIfPlaced(9000) != 1 {
		t.Error("partial last page not placed")
	}
}

func TestMemoryVersions(t *testing.T) {
	m := must(NewMemory(0, 1<<16, 64))
	line := Addr(0x40)
	if v := m.Store(line); v != 1 {
		t.Errorf("first store ver = %d", v)
	}
	if v := m.Store(line); v != 2 {
		t.Errorf("second store ver = %d", v)
	}
	if m.Committed(line) != 0 {
		t.Error("committed advanced without Commit")
	}
	m.Commit(line, 1)
	if m.Committed(line) != 1 {
		t.Error("commit(1) lost")
	}
	m.Commit(line, 0) // older commit must not regress
	if m.Committed(line) != 1 {
		t.Error("older commit regressed version")
	}
	if m.Latest(line) != 2 {
		t.Errorf("latest = %d", m.Latest(line))
	}
}

func TestMemoryStalenessChecker(t *testing.T) {
	m := must(NewMemory(0, 1<<16, 64))
	line := Addr(0x80)
	if !m.Observe(line, 0) {
		t.Error("fresh zero observation flagged stale")
	}
	m.Store(line)
	if m.Observe(line, 0) {
		t.Error("stale observation not flagged")
	}
	if m.StaleReads() != 1 || m.LastStaleLine() != line {
		t.Errorf("stale accounting: %d, %#x", m.StaleReads(), m.LastStaleLine())
	}
	if !m.Observe(line, 1) {
		t.Error("current observation flagged stale")
	}
	m.Reset()
	if m.StaleReads() != 0 || m.Latest(line) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMemoryImageHash(t *testing.T) {
	a := must(NewMemory(0, 1<<12, 64))
	b := must(NewMemory(0, 1<<12, 64))
	if a.ImageHash() != b.ImageHash() {
		t.Fatal("empty images differ")
	}
	a.Commit(0x40, a.Store(0x40))
	if a.ImageHash() == b.ImageHash() {
		t.Fatal("store did not change image hash")
	}
	b.Commit(0x40, b.Store(0x40))
	if a.ImageHash() != b.ImageHash() {
		t.Fatal("identical histories hash differently")
	}
	// An uncommitted store must diverge from a committed one: the hash
	// covers both version arrays, so unreleased dirty data is visible.
	a.Store(0x80)
	b.Commit(0x80, b.Store(0x80))
	if a.ImageHash() == b.ImageHash() {
		t.Fatal("dirty vs committed images hash identically")
	}
}

func TestMemoryLineOf(t *testing.T) {
	m := must(NewMemory(0, 1<<12, 64))
	if m.LineOf(0x7F) != 0x40 {
		t.Errorf("LineOf(0x7F) = %#x", m.LineOf(0x7F))
	}
	if m.LineShift() != 6 {
		t.Errorf("LineShift = %d", m.LineShift())
	}
	if m.Lines() != 64 {
		t.Errorf("Lines = %d", m.Lines())
	}
}

// TestMemoryLineIndexBound checks NewMemory accepts a bound ending at line
// index MaxLines-1, the highest a cache way can hold, and refuses one line
// more, or a size that wraps the address space, before allocating.
func TestMemoryLineIndexBound(t *testing.T) {
	last := Addr(MaxLines-1) * 64
	m, err := NewMemory(last, 64, 64)
	if err != nil {
		t.Fatalf("line index %d refused: %v", MaxLines-1, err)
	}
	if m.Lines() != 1 {
		t.Errorf("Lines = %d, want 1", m.Lines())
	}
	for _, c := range []struct {
		base Addr
		size uint64
	}{
		{last + 64, 64}, // line index MaxLines
		{last, 65},      // reaches into line index MaxLines
		{0, uint64(MaxLines)*64 + 1},
		{64, ^uint64(0) - 32}, // base+size wraps
	} {
		if _, err := NewMemory(c.base, c.size, 64); !errors.Is(err, ErrGeometry) {
			t.Errorf("NewMemory(%#x, %d) = %v, want ErrGeometry", c.base, c.size, err)
		}
	}
}

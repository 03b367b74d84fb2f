package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refWay is one way of the reference cache: an explicit valid flag, so an
// invalidation leaves a hole where the line was.
type refWay struct {
	valid bool
	tag   Addr
	ver   uint32
	dirty bool
}

// refCache is the naive reference model of Cache: per set, assoc ways kept
// in LRU order (index 0 most recent, holes included), a Fill taking the
// first invalid way and otherwise evicting the last one, and flushes
// committing in set order, then way order. Every operation is a direct scan,
// so a disagreement is a Cache bug.
type refCache struct {
	sets      [][]refWay
	lineShift uint
}

func newRefCache(sets, assoc int) *refCache {
	m := &refCache{sets: make([][]refWay, sets), lineShift: 6}
	for i := range m.sets {
		m.sets[i] = make([]refWay, assoc)
	}
	return m
}

func (m *refCache) set(line Addr) []refWay {
	return m.sets[uint64(line>>m.lineShift)%uint64(len(m.sets))]
}

// find returns the index of line's valid way in ways, or -1.
func (m *refCache) find(ways []refWay, line Addr) int {
	for i, w := range ways {
		if w.valid && w.tag == line {
			return i
		}
	}
	return -1
}

func refFront(ways []refWay, i int) {
	w := ways[i]
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

func (m *refCache) read(line Addr) (uint32, bool) {
	ways := m.set(line)
	i := m.find(ways, line)
	if i < 0 {
		return 0, false
	}
	refFront(ways, i)
	return ways[0].ver, true
}

func (m *refCache) peek(line Addr) (uint32, bool, bool) {
	ways := m.set(line)
	if i := m.find(ways, line); i >= 0 {
		return ways[i].ver, ways[i].dirty, true
	}
	return 0, false, false
}

// update sets a present line's version and dirty state and promotes it.
func (m *refCache) update(line Addr, ver uint32, dirty bool) bool {
	ways := m.set(line)
	i := m.find(ways, line)
	if i < 0 {
		return false
	}
	refFront(ways, i)
	ways[0].ver, ways[0].dirty = ver, dirty
	return true
}

func (m *refCache) fill(line Addr, ver uint32, dirty bool) EvictInfo {
	if m.update(line, ver, dirty) {
		return EvictInfo{}
	}
	ways := m.set(line)
	victim := -1
	for i, w := range ways {
		if !w.valid {
			victim = i
			break
		}
	}
	var ev EvictInfo
	if victim < 0 {
		victim = len(ways) - 1
		w := ways[victim]
		ev = EvictInfo{Evicted: true, Line: w.tag, Ver: w.ver, Dirty: w.dirty}
	}
	ways[victim] = refWay{valid: true, tag: line, ver: ver, dirty: dirty}
	refFront(ways, victim)
	return ev
}

func (m *refCache) invalidate(line Addr) (bool, bool) {
	ways := m.set(line)
	i := m.find(ways, line)
	if i < 0 {
		return false, false
	}
	dirty := ways[i].dirty
	ways[i] = refWay{}
	return dirty, true
}

func (m *refCache) invalidateRanges(rs RangeSet) int {
	n := 0
	for _, ways := range m.sets {
		for i, w := range ways {
			if w.valid && rs.Contains(w.tag) {
				ways[i] = refWay{}
				n++
			}
		}
	}
	return n
}

func (m *refCache) validIn(rs RangeSet) int {
	n := 0
	for _, ways := range m.sets {
		for _, w := range ways {
			if w.valid && rs.Contains(w.tag) {
				n++
			}
		}
	}
	return n
}

func (m *refCache) invalidateAll() int {
	n, _ := m.counts()
	for _, ways := range m.sets {
		clear(ways)
	}
	return n
}

// flush commits the dirty lines for which keep reports true, in set order and
// then way order, and cleans them.
func (m *refCache) flush(keep func(Addr) bool, commit func(Addr, uint32)) int {
	n := 0
	for _, ways := range m.sets {
		for i := range ways {
			if w := &ways[i]; w.valid && w.dirty && keep(w.tag) {
				commit(w.tag, w.ver)
				w.dirty = false
				n++
			}
		}
	}
	return n
}

// flushRanges mirrors FlushRanges: a range smaller than the set count is
// probed line by line in address order, a larger one walked set by set.
func (m *refCache) flushRanges(rs RangeSet, commit func(Addr, uint32)) int {
	if rs.Size()>>m.lineShift >= uint64(len(m.sets)) {
		return m.flush(rs.Contains, commit)
	}
	n := 0
	for i := 0; i < rs.Len(); i++ {
		r := rs.At(i)
		for line := r.Lo &^ 63; line < r.Hi; line += 64 {
			ways := m.set(line)
			if j := m.find(ways, line); j >= 0 && ways[j].dirty {
				commit(line, ways[j].ver)
				ways[j].dirty = false
				n++
			}
		}
	}
	return n
}

func (m *refCache) counts() (valid, dirty int) {
	for _, ways := range m.sets {
		for _, w := range ways {
			if w.valid {
				valid++
				if w.dirty {
					dirty++
				}
			}
		}
	}
	return
}

// lineView is a test-only view of one valid line: its address, version and
// dirty flag, however the cache packs them.
type lineView struct {
	tag   Addr
	ver   uint32
	dirty bool
}

// order lists set si's valid lines in LRU order.
func (m *refCache) order(si int) []lineView {
	var out []lineView
	for _, w := range m.sets[si] {
		if w.valid {
			out = append(out, lineView{tag: w.tag, ver: w.ver, dirty: w.dirty})
		}
	}
	return out
}

// view lists Cache set si's valid lines in LRU order.
func (c *Cache) view(si int) []lineView {
	var out []lineView
	for _, w := range c.valid(uint64(si)) {
		out = append(out, lineView{tag: c.lineOf(w), ver: w.ver, dirty: w.dirty()})
	}
	return out
}

// TestCacheMatchesReferenceLRU drives Cache and the hole-leaving reference
// model through the same random operation sequences and requires identical
// hits, versions, evictions and flush commit sequences, plus the same valid
// lines in the same LRU order in every set after every operation. ReadFill
// is checked against the reference's read then, on a miss, fill with version
// 0; FillMRU against its clean fill, on both of its paths (the line clean at
// its set's MRU slot, and the fallback to Fill), each of which every
// geometry must take. Each sequence also spins the 16-bit epoch through a
// wrap while lines written at epoch 1 are still in the way array. The last
// geometries place their lines at the top of the index range a way can hold,
// ending at line MaxLines-1.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	top := func(sets, assoc int) Addr { return Addr(MaxLines-3*sets*assoc) * 64 }
	geometries := []struct {
		sets, assoc int
		base        Addr
	}{{4, 4, 0}, {3, 2, 0}, {1, 8, 0}, {4, 4, top(4, 4)}, {3, 2, top(3, 2)}}
	rnd := rand.New(rand.NewSource(2024))
	for _, g := range geometries {
		var mruHits, fallbacks int
		for trial := 0; trial < 60; trial++ {
			name := fmt.Sprintf("%dx%d@%#x/trial%d", g.sets, g.assoc, g.base, trial)
			c := must(NewCache("ref", g.sets*g.assoc*64, g.assoc, 64))
			m := newRefCache(g.sets, g.assoc)
			universe := 3 * g.sets * g.assoc // lines; enough to force evictions
			wrapAt := rnd.Intn(300)
			var got, want []string
			commitTo := func(log *[]string) func(Addr, uint32) {
				return func(l Addr, v uint32) { *log = append(*log, fmt.Sprintf("%#x@%d", l, v)) }
			}
			for op := 0; op < 300; op++ {
				line := g.base + Addr(rnd.Intn(universe))*64
				ver := uint32(op + 1)
				check := func(what string, have, ref any) {
					t.Helper()
					if fmt.Sprint(have) != fmt.Sprint(ref) {
						t.Fatalf("%s op %d: %s = %v, reference %v", name, op, what, have, ref)
					}
				}
				if op == wrapAt {
					n := c.InvalidateAll()
					for c.epoch != 1 {
						c.InvalidateAll()
					}
					check("InvalidateAll through the epoch wrap", n, m.invalidateAll())
				}
				switch rnd.Intn(15) {
				case 0, 1:
					v, hit := c.Read(line)
					wv, whit := m.read(line)
					check(fmt.Sprintf("Read(%#x)", line), []any{v, hit}, []any{wv, whit})
				case 2:
					v, d, hit := c.Peek(line)
					wv, wd, whit := m.peek(line)
					check(fmt.Sprintf("Peek(%#x)", line), []any{v, d, hit}, []any{wv, wd, whit})
				case 3:
					check(fmt.Sprintf("Write(%#x)", line), c.Write(line, ver), m.update(line, ver, true))
				case 4:
					check(fmt.Sprintf("UpdateClean(%#x)", line), c.UpdateClean(line, ver), m.update(line, ver, false))
				case 5, 6, 7:
					dirty := rnd.Intn(2) == 0
					check(fmt.Sprintf("Fill(%#x)", line), c.Fill(line, ver, dirty), m.fill(line, ver, dirty))
				case 8:
					d, p := c.Invalidate(line)
					wd, wp := m.invalidate(line)
					check(fmt.Sprintf("Invalidate(%#x)", line), []any{d, p}, []any{wd, wp})
				case 9:
					// Widths below the set count take the per-line probe
					// path, the rest the full walk.
					rs := NewRangeSet(Range{line, line + Addr(1+rnd.Intn(2*g.sets))*64})
					check(fmt.Sprintf("ValidInRanges(%v)", rs), c.ValidInRanges(rs), m.validIn(rs))
					check(fmt.Sprintf("InvalidateRanges(%v)", rs), c.InvalidateRanges(rs), m.invalidateRanges(rs))
				case 10:
					got, want = got[:0], want[:0]
					n := c.FlushAll(commitTo(&got))
					wn := m.flush(func(Addr) bool { return true }, commitTo(&want))
					check("FlushAll", []any{n, got}, []any{wn, want})
				case 11:
					got, want = got[:0], want[:0]
					rs := NewRangeSet(Range{line, line + Addr(1+rnd.Intn(2*g.sets))*64})
					n := c.FlushRanges(rs, commitTo(&got))
					wn := m.flushRanges(rs, commitTo(&want))
					check(fmt.Sprintf("FlushRanges(%v)", rs), []any{n, got}, []any{wn, want})
				case 12:
					if rnd.Intn(4) == 0 {
						check("InvalidateAll", c.InvalidateAll(), m.invalidateAll())
					}
				case 13:
					v, hit, ev := c.ReadFill(line)
					wv, whit := m.read(line)
					var wev EvictInfo
					if !whit {
						wev = m.fill(line, 0, false)
					}
					check(fmt.Sprintf("ReadFill(%#x)", line), []any{v, hit, ev}, []any{wv, whit, wev})
				case 14:
					// Half the time complete a ReadFill, as the machine's L1
					// does; otherwise FillMRU meets whatever the set holds.
					if rnd.Intn(2) == 0 {
						c.ReadFill(line)
						if _, hit := m.read(line); !hit {
							m.fill(line, 0, false)
						}
					}
					if mru := m.order(int(uint64(line>>6) % uint64(g.sets))); len(mru) != 0 && mru[0].tag == line && !mru[0].dirty {
						mruHits++
					} else {
						fallbacks++
					}
					c.FillMRU(line, ver)
					m.fill(line, ver, false)
				}
				wv, wd := m.counts()
				check("ValidLines/DirtyLines", []int{c.ValidLines(), c.DirtyLines()}, []int{wv, wd})
				for si := 0; si < g.sets; si++ {
					check(fmt.Sprintf("set %d", si), c.view(si), m.order(si))
				}
			}
		}
		if mruHits == 0 || fallbacks == 0 {
			t.Errorf("%dx%d@%#x: FillMRU took the MRU path %d times and fell back %d times; want both",
				g.sets, g.assoc, g.base, mruHits, fallbacks)
		}
	}
}

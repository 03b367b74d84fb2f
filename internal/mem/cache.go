package mem

import (
	"fmt"
	"unsafe"
)

// Cache is a set-associative, LRU-replaced cache model holding line
// addresses and the data versions they carry. It is policy-free: the
// coherence protocol composes Read/Write/Fill/Flush/Invalidate primitives
// into write-back, write-through, and forwarding behaviors.
//
// Within each set, the valid lines are a counted prefix of the ways, kept in
// LRU order: index 0 is the most recently used line and index n-1 the
// eviction victim. Probes compare only those n tags, a miss fills slot n
// without searching for a free way, and invalidating a line shifts the later
// ways down one slot, so the order of the survivors never changes.
//
// A way is 8 bytes: the line's index (line >> log2(lineSize)) shifted left by
// one with the dirty flag in bit 0, next to the data version. Line addresses
// are rebuilt from the index only where a caller needs one (evictions, range
// tests, flush commits). The precondition is that every line passed to a
// Cache has an index below MaxLines (2^31, 128 GiB at 64 B lines); NewMemory
// refuses any bound past it, and every line a machine caches indexes its
// Memory, so no simulated line can alias another.
//
// Two representation choices make the whole-cache maintenance operations the
// protocols issue at every kernel boundary cheap:
//
//   - Validity is an epoch: a set's count n holds iff the set's record
//     carries the cache's epoch; otherwise the set is empty, and its record
//     is reset the first time a fill touches it. InvalidateAll is then O(1)
//     — bump the epoch — instead of a clear of every set (the epoch is 16
//     bits; on wrap the per-set records really are cleared once).
//   - A per-set dirty bitmap records which sets may hold dirty lines, so
//     FlushAll and large FlushRanges walk only those sets (in ascending set
//     order, preserving the exact commit order of the full walk) instead of
//     every tag in the cache.
type Cache struct {
	name      string
	lineShift uint
	numSets   uint64
	assoc     int
	setsPow2  bool
	ways      []way    // numSets * assoc, flattened
	sets      []setRec // one per set
	epoch     uint16

	// dirtySets has one bit per set, set when a way in the set becomes
	// dirty. Bits are cleared when a flush walk cleans the set; a stale set
	// bit (all its dirty lines invalidated or cleaned individually) only
	// costs that walk one wasted scan. For caches of up to
	// 64*len(dirtyInline) sets (every per-CU L1) it aliases dirtyInline,
	// avoiding another allocation per cache; Cache is never copied by
	// value, so the self-reference is safe.
	dirtySets   []uint64
	dirtyInline [4]uint64

	validLines int
	dirtyLines int
}

// way is one cached line. key is the line index shifted left by one, with
// the dirty flag in bit 0; probes compare key&^dirtyBit.
type way struct {
	key uint32
	ver uint32 // data version carried by the line
}

const dirtyBit = 1

// MaxLines bounds the line indices a Cache can hold: a way keeps 31 bits of
// index. At 64 B lines that is 128 GiB of simulated address space.
const MaxLines = 1 << 31

func (w way) dirty() bool { return w.key&dirtyBit != 0 }

// setRec records a set's valid ways: ways[0:n) when epoch equals the
// cache's epoch, none otherwise (0 is never current).
type setRec struct {
	epoch uint16
	n     uint16
}

// EvictInfo describes a line displaced by a Fill.
type EvictInfo struct {
	Evicted bool
	Line    Addr
	Ver     uint32
	Dirty   bool
}

// NewCache builds a cache of size bytes with the given associativity and
// line size. size must be a multiple of assoc*lineSize. Geometry violations
// return an error wrapping ErrGeometry.
func NewCache(name string, size, assoc, lineSize int) (*Cache, error) {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("%w: cache %s dimensions must be positive (size=%d assoc=%d lineSize=%d)",
			ErrGeometry, name, size, assoc, lineSize)
	}
	if assoc > 1<<16-1 {
		return nil, fmt.Errorf("%w: cache %s associativity %d exceeds %d",
			ErrGeometry, name, assoc, 1<<16-1)
	}
	if size%(assoc*lineSize) != 0 {
		return nil, fmt.Errorf("%w: cache %s size %d is not a multiple of assoc*lineSize (%d*%d)",
			ErrGeometry, name, size, assoc, lineSize)
	}
	shift, err := log2(lineSize, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: cache %s line size %d is not a power of two <= 64 KiB",
			ErrGeometry, name, lineSize)
	}
	numSets := uint64(size / (assoc * lineSize))
	c := &Cache{
		name:      name,
		lineShift: shift,
		numSets:   numSets,
		assoc:     assoc,
		setsPow2:  numSets&(numSets-1) == 0,
		ways:      make([]way, numSets*uint64(assoc)),
		sets:      make([]setRec, numSets),
		epoch:     1,
	}
	if words := (numSets + 63) / 64; words <= uint64(len(c.dirtyInline)) {
		c.dirtySets = c.dirtyInline[:words]
	} else {
		c.dirtySets = make([]uint64, words)
	}
	return c, nil
}

// NewCacheArray builds count caches of identical geometry sharing a single
// way-array allocation and a single set-record allocation. Machines build
// hundreds of per-CU L1s; allocating them individually costs three
// allocations per cache, which dominates machine-construction allocation
// counts. The returned slice never moves, so taking the address of an
// element is safe.
func NewCacheArray(name string, count, size, assoc, lineSize int) ([]Cache, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: cache %s array count %d must be positive", ErrGeometry, name, count)
	}
	proto, err := NewCache(name, size, assoc, lineSize)
	if err != nil {
		return nil, err
	}
	sets, lines := proto.numSets, proto.numSets*uint64(proto.assoc)
	ways := make([]way, lines*uint64(count))
	recs := make([]setRec, sets*uint64(count))
	words := (sets + 63) / 64
	arr := make([]Cache, count)
	for i := range arr {
		arr[i] = *proto
		arr[i].ways = ways[uint64(i)*lines : uint64(i+1)*lines : uint64(i+1)*lines]
		arr[i].sets = recs[uint64(i)*sets : uint64(i+1)*sets : uint64(i+1)*sets]
		if words <= uint64(len(arr[i].dirtyInline)) {
			arr[i].dirtySets = arr[i].dirtyInline[:words]
		} else {
			arr[i].dirtySets = make([]uint64, words)
		}
	}
	return arr, nil
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return int(c.numSets) * c.assoc }

// WayBytes returns the host bytes the cache's way array occupies.
func (c *Cache) WayBytes() int { return len(c.ways) * int(unsafe.Sizeof(way{})) }

// ValidLines returns the number of valid lines currently cached.
func (c *Cache) ValidLines() int { return c.validLines }

// DirtyLines returns the number of dirty lines currently cached.
func (c *Cache) DirtyLines() int { return c.dirtyLines }

// lineOf rebuilds the line address a way holds.
func (c *Cache) lineOf(w way) Addr {
	return Addr(w.key>>1) << c.lineShift
}

// valid returns the valid ways of set si, in LRU order.
func (c *Cache) valid(si uint64) []way {
	base := si * uint64(c.assoc)
	if r := c.sets[si]; r.epoch == c.epoch {
		return c.ways[base : base+uint64(r.n)]
	}
	return c.ways[base:base]
}

// lookup returns the valid ways of the set holding line, the set index for
// callers that also maintain the dirty bitmap, and line's clean key.
func (c *Cache) lookup(line Addr) ([]way, uint64, uint32) {
	idx := uint64(line) >> c.lineShift
	var si uint64
	if c.setsPow2 {
		si = idx & (c.numSets - 1)
	} else {
		si = idx % c.numSets
	}
	return c.valid(si), si, uint32(idx) << 1
}

func (c *Cache) markDirtySet(si uint64) {
	c.dirtySets[si>>6] |= 1 << (si & 63)
}

// moveToFront promotes ways[i] to MRU position.
func moveToFront(ways []way, i int) {
	if i == 0 {
		return
	}
	w := ways[i]
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

// drop removes ways[i] from set si's valid prefix ways, shifting the later
// ways down one slot so the survivors keep their LRU order.
func (c *Cache) drop(si uint64, ways []way, i int) {
	if ways[i].dirty() {
		c.dirtyLines--
	}
	c.validLines--
	copy(ways[i:], ways[i+1:])
	c.sets[si].n--
}

// Read looks up line. On a hit it returns the cached version, promotes the
// line to MRU, and reports hit=true. It never allocates.
func (c *Cache) Read(line Addr) (ver uint32, hit bool) {
	ways, _, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			moveToFront(ways, i)
			return ways[0].ver, true
		}
	}
	return 0, false
}

// ReadFill is Read followed, on a miss, by Fill(line, 0, false), in one pass
// over the set: a miss installs line clean with version 0 at the set's MRU
// slot and returns the way it displaced. The caller completes the install
// with FillMRU once it knows the line's version. The miss path repeats
// Fill's instead of sharing a helper with it: the extra call on every miss
// measured about 4% of a serial run's time.
func (c *Cache) ReadFill(line Addr) (ver uint32, hit bool, ev EvictInfo) {
	ways, si, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			moveToFront(ways, i)
			return ways[0].ver, true, EvictInfo{}
		}
	}
	if n := len(ways); n < c.assoc {
		c.sets[si] = setRec{epoch: c.epoch, n: uint16(n + 1)}
		ways = ways[:n+1]
		c.validLines++
	} else {
		old := ways[n-1]
		ev = EvictInfo{Evicted: true, Line: c.lineOf(old), Ver: old.ver, Dirty: old.dirty()}
		if old.dirty() {
			c.dirtyLines--
		}
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = way{key: key}
	return 0, false, ev
}

// FillMRU is Fill(line, ver, false) for a line that ReadFill has just
// installed: when the set's MRU slot holds line clean, it sets the version
// there without probing the rest of the set. Otherwise it falls back to Fill.
// A line the fallback evicts is dropped, so FillMRU suits caches that never
// hold dirty lines.
func (c *Cache) FillMRU(line Addr, ver uint32) {
	if ways, _, key := c.lookup(line); len(ways) != 0 && ways[0].key == key {
		ways[0].ver = ver
		return
	}
	c.Fill(line, ver, false)
}

// Peek reports whether line is cached, without disturbing LRU order.
func (c *Cache) Peek(line Addr) (ver uint32, dirty, hit bool) {
	ways, _, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			return ways[i].ver, ways[i].dirty(), true
		}
	}
	return 0, false, false
}

// Write updates line in place with the new version, marking it dirty
// (write-back semantics), and reports whether the line was present. On a
// miss it does nothing; the caller decides whether to write-allocate via
// Fill.
func (c *Cache) Write(line Addr, ver uint32) bool {
	ways, si, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			if !ways[i].dirty() {
				c.dirtyLines++
				c.markDirtySet(si)
			}
			moveToFront(ways, i)
			ways[0] = way{key: key | dirtyBit, ver: ver}
			return true
		}
	}
	return false
}

// UpdateClean refreshes line's version without marking it dirty, modeling a
// write-through store updating a cached copy whose data has already been
// committed below. It reports whether the line was present.
func (c *Cache) UpdateClean(line Addr, ver uint32) bool {
	ways, _, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			moveToFront(ways, i)
			if ways[0].dirty() {
				c.dirtyLines--
			}
			ways[0] = way{key: key, ver: ver}
			return true
		}
	}
	return false
}

// Fill installs line with the given version and dirty state, evicting the
// LRU way if the set is full. Filling a line already present updates it in
// place instead.
func (c *Cache) Fill(line Addr, ver uint32, dirty bool) EvictInfo {
	ways, si, key := c.lookup(line)
	w := way{key: key, ver: ver}
	if dirty {
		w.key |= dirtyBit
	}
	// Already present: update in place.
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			moveToFront(ways, i)
			if dirty && !ways[0].dirty() {
				c.dirtyLines++
				c.markDirtySet(si)
			}
			if !dirty && ways[0].dirty() {
				c.dirtyLines--
			}
			ways[0] = w
			return EvictInfo{}
		}
	}
	// Take the first free way, or evict the LRU one when the set is full.
	var ev EvictInfo
	if n := len(ways); n < c.assoc {
		c.sets[si] = setRec{epoch: c.epoch, n: uint16(n + 1)}
		ways = ways[:n+1]
		c.validLines++
	} else {
		old := ways[n-1]
		ev = EvictInfo{Evicted: true, Line: c.lineOf(old), Ver: old.ver, Dirty: old.dirty()}
		if old.dirty() {
			c.dirtyLines--
		}
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = w
	if dirty {
		c.dirtyLines++
		c.markDirtySet(si)
	}
	return ev
}

// Invalidate drops line if present and reports whether it was cached and
// whether it was dirty (the dirty data is discarded).
func (c *Cache) Invalidate(line Addr) (wasDirty, wasPresent bool) {
	ways, si, key := c.lookup(line)
	for i := range ways {
		if ways[i].key&^dirtyBit == key {
			wasDirty = ways[i].dirty()
			c.drop(si, ways, i)
			return wasDirty, true
		}
	}
	return false, false
}

// InvalidateAll drops every line and returns the number invalidated.
// Dirty data is discarded; callers needing write-back must FlushAll first.
// The work is O(1): validity is epoch-based, so bumping the epoch empties
// every set at once (the per-set records are physically cleared only when
// the 16-bit epoch wraps).
func (c *Cache) InvalidateAll() int {
	n := c.validLines
	if c.epoch == ^uint16(0) {
		clear(c.sets)
		c.epoch = 1
	} else {
		c.epoch++
	}
	clear(c.dirtySets)
	c.validLines = 0
	c.dirtyLines = 0
	return n
}

// InvalidateRanges drops every valid line whose address lies in rs and
// returns the number invalidated. Small ranges are handled with per-line
// set probes; large ones with a full tag walk.
func (c *Cache) InvalidateRanges(rs RangeSet) int {
	if c.rangeSmall(rs) {
		n := 0
		c.eachLine(rs, func(line Addr) {
			if _, present := c.Invalidate(line); present {
				n++
			}
		})
		return n
	}
	n := 0
	for si := range c.sets {
		ways := c.valid(uint64(si))
		for i := len(ways) - 1; i >= 0; i-- {
			if rs.Contains(c.lineOf(ways[i])) {
				c.drop(uint64(si), ways, i)
				ways = ways[:len(ways)-1]
				n++
			}
		}
	}
	return n
}

// rangeSmall reports whether probing rs line by line beats walking every
// tag in the cache.
func (c *Cache) rangeSmall(rs RangeSet) bool {
	lines := rs.Size() >> c.lineShift
	return lines < c.numSets
}

// eachLine invokes f for every line-aligned address in rs.
func (c *Cache) eachLine(rs RangeSet, f func(Addr)) {
	step := Addr(1) << c.lineShift
	for i, n := 0, rs.Len(); i < n; i++ {
		r := rs.At(i)
		for line := r.Lo &^ (step - 1); line < r.Hi; line += step {
			f(line)
		}
	}
}

// flushSet writes back the dirty lines of set si through commit, in way
// order, and returns how many it cleaned.
func (c *Cache) flushSet(si uint64, commit func(line Addr, ver uint32)) int {
	n := 0
	ways := c.valid(si)
	for i := range ways {
		w := &ways[i]
		if w.dirty() {
			commit(c.lineOf(*w), w.ver)
			w.key &^= dirtyBit
			c.dirtyLines--
			n++
		}
	}
	return n
}

// FlushAll writes back every dirty line through commit and marks it clean,
// returning the number of lines written back. Clean and invalid lines are
// untouched; the cache retains clean copies, matching the baseline protocol
// in which a flushed line transitions to a shared/valid state. Only sets
// flagged in the dirty bitmap are walked, in ascending set order — the same
// commit order as a full tag walk.
func (c *Cache) FlushAll(commit func(line Addr, ver uint32)) int {
	if c.dirtyLines == 0 {
		return 0
	}
	n := 0
	for wi, word := range c.dirtySets {
		if word == 0 {
			continue
		}
		for b := uint64(0); word != 0; word >>= 1 {
			if word&1 != 0 {
				n += c.flushSet(uint64(wi)<<6+b, commit)
			}
			b++
		}
		c.dirtySets[wi] = 0
	}
	return n
}

// FlushRanges writes back dirty lines whose addresses lie in rs, marking
// them clean, and returns the number written back.
func (c *Cache) FlushRanges(rs RangeSet, commit func(line Addr, ver uint32)) int {
	if c.dirtyLines == 0 {
		return 0
	}
	if c.rangeSmall(rs) {
		n := 0
		c.eachLine(rs, func(line Addr) {
			ways, _, key := c.lookup(line)
			for i := range ways {
				if ways[i].key == key|dirtyBit {
					commit(line, ways[i].ver)
					ways[i].key = key
					c.dirtyLines--
					n++
				}
			}
		})
		return n
	}
	n := 0
	for wi, word := range c.dirtySets {
		for b := uint64(0); word != 0; word >>= 1 {
			if word&1 != 0 {
				ways := c.valid(uint64(wi)<<6 + b)
				remaining := false
				for i := range ways {
					w := &ways[i]
					if !w.dirty() {
						continue
					}
					if line := c.lineOf(*w); rs.Contains(line) {
						commit(line, w.ver)
						w.key &^= dirtyBit
						c.dirtyLines--
						n++
					} else {
						remaining = true
					}
				}
				if !remaining {
					c.dirtySets[wi] &^= 1 << b
				}
			}
			b++
		}
	}
	return n
}

// ValidInRanges counts valid lines whose addresses lie in rs.
func (c *Cache) ValidInRanges(rs RangeSet) int {
	n := 0
	for si := range c.sets {
		for _, w := range c.valid(uint64(si)) {
			if rs.Contains(c.lineOf(w)) {
				n++
			}
		}
	}
	return n
}

// Reset invalidates everything (alias of InvalidateAll, kept for symmetry
// with other components).
func (c *Cache) Reset() { c.InvalidateAll() }

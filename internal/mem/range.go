// Package mem models the memory subsystem of the simulated multi-chiplet
// GPU: virtual address ranges, first-touch NUMA page placement, versioned
// backing storage, and set-associative caches with write-back or
// write-through policies.
//
// Every cache line carries the version number of the data it holds. A global
// Memory tracks, per line, the latest version written anywhere and the
// version committed to the inter-chiplet ordering point (the L3/HBM). The
// difference lets the simulator detect stale reads functionally: if a read
// ever observes a version older than the latest, the coherence policy under
// test elided a synchronization operation it must not have.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a byte address in the simulated GPU's virtual address space.
//
// It is a defined type (not an alias for uint64) so that arithmetic mixing
// Addr with event.Time — two unsigned domains that must never meet — needs
// an explicit conversion.
type Addr uint64

// Range is a half-open address interval [Lo, Hi).
type Range struct {
	Lo, Hi Addr
}

// Size returns the number of bytes in r.
func (r Range) Size() uint64 {
	if r.Hi <= r.Lo {
		return 0
	}
	return uint64(r.Hi - r.Lo)
}

// Empty reports whether r covers no bytes.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Contains reports whether a lies in r.
func (r Range) Contains(a Addr) bool { return a >= r.Lo && a < r.Hi }

// Overlaps reports whether r and o share at least one byte.
func (r Range) Overlaps(o Range) bool {
	return !r.Empty() && !o.Empty() && r.Lo < o.Hi && o.Lo < r.Hi
}

// Intersect returns the overlap of r and o (possibly empty).
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{lo, hi}
}

// Union returns the smallest range covering both r and o. The gap between
// them, if any, is included; callers that need exact coverage should keep a
// RangeSet instead.
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	lo, hi := r.Lo, r.Hi
	if o.Lo < lo {
		lo = o.Lo
	}
	if o.Hi > hi {
		hi = o.Hi
	}
	return Range{lo, hi}
}

// Adjacent reports whether r and o touch or overlap, i.e. their union is
// contiguous.
func (r Range) Adjacent(o Range) bool {
	return !r.Empty() && !o.Empty() && r.Lo <= o.Hi && o.Lo <= r.Hi
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", r.Lo, r.Hi)
}

// inlineRanges is the small-set capacity stored directly in a RangeSet.
// Kernel-argument annotations are overwhelmingly 1-2 ranges per chiplet, so
// the inline array removes the per-set slice allocation the CP's bookkeeping
// would otherwise pay on every launch.
const inlineRanges = 4

// RangeSet is a normalized set of disjoint, sorted, non-adjacent ranges.
// The zero value is an empty set.
//
// Small sets (up to inlineRanges members) live in an inline array, so
// copying a RangeSet value copies them outright. Larger sets spill to a
// slice; mutating methods then edit that slice in place, so two RangeSet
// values must not share a spill slice across mutation — use Clone when a
// stored set and a live set could both be mutated.
type RangeSet struct {
	inline [inlineRanges]Range
	spill  []Range // non-nil: authoritative storage, inline unused
	n      int32   // member count while inline
}

// NewRangeSet builds a set from arbitrary ranges, normalizing them.
func NewRangeSet(ranges ...Range) RangeSet {
	var s RangeSet
	for _, r := range ranges {
		s.Add(r)
	}
	return s
}

// Len returns the number of disjoint ranges.
func (s RangeSet) Len() int {
	if s.spill != nil {
		return len(s.spill)
	}
	return int(s.n)
}

// At returns the i-th range in ascending order. Together with Len it is the
// allocation-free way to iterate a set.
func (s *RangeSet) At(i int) Range {
	if s.spill != nil {
		return s.spill[i]
	}
	return s.inline[i]
}

// Equal reports whether s and o contain exactly the same ranges.
func (s *RangeSet) Equal(o RangeSet) bool {
	n := s.Len()
	if n != o.Len() {
		return false
	}
	for i := 0; i < n; i++ {
		if s.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// view returns the members as a slice aliasing the receiver's storage.
func (s *RangeSet) view() []Range {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// setTo replaces the members with out (sorted, disjoint, non-adjacent),
// reusing the existing spill slice when it has capacity.
func (s *RangeSet) setTo(out []Range) {
	if s.spill == nil && len(out) <= inlineRanges {
		s.n = int32(copy(s.inline[:], out))
		return
	}
	if cap(s.spill) >= len(out) {
		s.spill = s.spill[:len(out)]
		copy(s.spill, out)
		return
	}
	// Spill replacement when capacity is exceeded; amortized by 2x growth.
	s.spill = make([]Range, len(out))
	copy(s.spill, out)
	s.n = 0
}

// Add inserts r, merging with any overlapping or adjacent members. The edit
// is in place: an insert shifts the tail right (growing storage only when
// needed), a merge collapses the overlapped window with a copy-within.
func (s *RangeSet) Add(r Range) {
	if r.Empty() {
		return
	}
	rs := s.view()
	n := len(rs)
	// First member that could merge with r: linear for the inline array,
	// binary for a spilled slice.
	var i int
	if s.spill == nil {
		for i < n && rs[i].Hi < r.Lo {
			i++
		}
	} else {
		i = sort.Search(n, func(k int) bool { return rs[k].Hi >= r.Lo })
	}
	j := i
	merged := r
	for j < n && rs[j].Lo <= merged.Hi {
		merged = merged.Union(rs[j])
		j++
	}
	if i < j {
		// Collapse the merged window [i, j) into one slot.
		rs[i] = merged
		copy(rs[i+1:], rs[j:])
		s.truncate(n - (j - i) + 1)
		return
	}
	// Pure insert at i.
	if s.spill == nil {
		if n < inlineRanges {
			copy(s.inline[i+1:n+1], s.inline[i:n])
			s.inline[i] = merged
			s.n++
			return
		}
		// One-time inline-to-spill transition past 4 ranges.
		sp := make([]Range, n+1, 2*inlineRanges)
		copy(sp, s.inline[:i])
		sp[i] = merged
		copy(sp[i+1:], s.inline[i:])
		s.spill = sp
		s.n = 0
		return
	}
	// Amortized spill growth; steady state inserts in place.
	s.spill = append(s.spill, Range{})
	copy(s.spill[i+1:], s.spill[i:])
	s.spill[i] = merged
}

// truncate shortens the member count to n after an in-place collapse.
func (s *RangeSet) truncate(n int) {
	if s.spill != nil {
		s.spill = s.spill[:n]
		return
	}
	s.n = int32(n)
}

// AddSet inserts every range of o with a single linear merge-walk over the
// two sorted sets (the old per-range Add was O(len(s)) per insertion).
func (s *RangeSet) AddSet(o RangeSet) {
	on := o.Len()
	if on == 0 {
		return
	}
	sn := s.Len()
	if sn == 0 {
		s.setTo(o.view())
		return
	}
	if on == 1 {
		s.Add(o.At(0))
		return
	}
	var stack [2 * inlineRanges]Range
	out := stack[:0]
	if sn+on > len(stack) {
		// Heap fallback for sets beyond 8 ranges; typical sets stay on the stack.
		out = make([]Range, 0, sn+on)
	}
	sv, ov := s.view(), o.view()
	i, j := 0, 0
	for i < sn || j < on {
		var r Range
		if j >= on || (i < sn && sv[i].Lo <= ov[j].Lo) {
			r = sv[i]
			i++
		} else {
			r = ov[j]
			j++
		}
		if k := len(out) - 1; k >= 0 && r.Lo <= out[k].Hi {
			if r.Hi > out[k].Hi {
				out[k].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	s.setTo(out)
}

// IntersectSet reduces s to the bytes covered by both s and o, with a linear
// merge-walk over the two sorted sets.
func (s *RangeSet) IntersectSet(o RangeSet) {
	sn, on := s.Len(), o.Len()
	if sn == 0 {
		return
	}
	if on == 0 {
		s.truncate(0)
		return
	}
	var stack [2 * inlineRanges]Range
	out := stack[:0]
	if sn+on > len(stack) {
		// Heap fallback for sets beyond 8 ranges; typical sets stay on the stack.
		out = make([]Range, 0, sn+on)
	}
	sv, ov := s.view(), o.view()
	i, j := 0, 0
	for i < sn && j < on {
		if x := sv[i].Intersect(ov[j]); !x.Empty() {
			out = append(out, x)
		}
		if sv[i].Hi <= ov[j].Hi {
			i++
		} else {
			j++
		}
	}
	s.setTo(out)
}

// Ranges returns the normalized members in ascending order. The returned
// slice is shared with (or copied from) the set's storage; callers must not
// mutate it. Hot paths should iterate with Len and At instead, which never
// allocate.
func (s RangeSet) Ranges() []Range {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// Empty reports whether the set covers no bytes.
func (s RangeSet) Empty() bool { return s.Len() == 0 }

// Size returns the total bytes covered.
func (s RangeSet) Size() uint64 {
	var n uint64
	for _, r := range s.view() {
		n += r.Size()
	}
	return n
}

// Contains reports whether a lies in any member range.
func (s RangeSet) Contains(a Addr) bool {
	rs := s.view()
	if s.spill != nil {
		i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > a })
		return i < len(rs) && rs[i].Contains(a)
	}
	for _, r := range rs {
		if r.Contains(a) {
			return true
		}
	}
	return false
}

// Overlaps reports whether any member overlaps r.
func (s RangeSet) Overlaps(r Range) bool {
	rs := s.view()
	if s.spill != nil {
		i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > r.Lo })
		return i < len(rs) && rs[i].Overlaps(r)
	}
	for _, m := range rs {
		if m.Overlaps(r) {
			return true
		}
	}
	return false
}

// OverlapsSet reports whether the two sets share at least one byte, with a
// linear walk over the two sorted sets.
func (s RangeSet) OverlapsSet(o RangeSet) bool {
	sv, ov := s.view(), o.view()
	i, j := 0, 0
	for i < len(sv) && j < len(ov) {
		if sv[i].Overlaps(ov[j]) {
			return true
		}
		if sv[i].Hi <= ov[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Bounds returns the smallest single range covering the set.
func (s RangeSet) Bounds() Range {
	rs := s.view()
	if len(rs) == 0 {
		return Range{}
	}
	return Range{rs[0].Lo, rs[len(rs)-1].Hi}
}

// Clone returns an independent copy.
func (s RangeSet) Clone() RangeSet {
	if s.spill == nil {
		return s // the inline array is copied by value
	}
	c := RangeSet{spill: make([]Range, len(s.spill))}
	copy(c.spill, s.spill)
	return c
}

func (s RangeSet) String() string {
	out := ""
	for i, r := range s.view() {
		if i > 0 {
			out += " "
		}
		out += r.String()
	}
	return "{" + out + "}"
}

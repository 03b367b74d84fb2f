// Package hmg implements HMG (Ren et al., HPCA 2020), the state-of-the-art
// hierarchical multi-GPU / multi-chiplet coherence protocol the paper
// compares against, in its MCM-GPU variant: write-through per-chiplet L2s, a
// home node that always holds each line's most up-to-date value, remote
// reads cached at the requester, and a per-chiplet coherence directory whose
// entries each cover four cache lines (the paper's 12K-entry sizing).
package hmg

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ErrConfig reports an invalid HMG configuration; constructors return it
// instead of panicking so embedding simulations surface it as a run error.
var ErrConfig = errors.New("hmg: invalid config")

// dirEntry tracks which chiplets may cache lines of one aligned line group,
// in 8 bytes. group is the group's index (base address >> groupShift); it
// fits 32 bits because a group spans at least one line and mem.NewMemory
// bounds every simulated line index below mem.MaxLines.
type dirEntry struct {
	group   uint32
	sharers uint16 // bit per chiplet
	valid   bool
}

// directory is one chiplet's (home-side) sharer directory: set-associative,
// LRU-replaced, entries covering LinesPerEntry-aligned groups.
type directory struct {
	groupShift uint
	numSets    uint64
	assoc      int
	sets       []dirEntry
}

// MaxDirEntries bounds the per-chiplet directory capacity: 1M entries, 85x
// the 12K default, is 16 MiB of entries per chiplet. Larger requests are
// refused up front, because the allocation itself can exhaust the host.
const MaxDirEntries = 1 << 20

// checkGeometry reports whether a directory of entries entries and the
// given associativity, covering groups of linesPerEntry lines of lineSize
// bytes, can be built: entries in [assoc, MaxDirEntries] and a group span
// that is a power of two <= 16 MiB. It returns the span's log2; the error
// wraps ErrConfig.
func checkGeometry(entries, assoc, linesPerEntry, lineSize int) (uint, error) {
	if entries < assoc || entries > MaxDirEntries {
		return 0, fmt.Errorf("%w: %d directory entries, want %d to %d", ErrConfig, entries, assoc, MaxDirEntries)
	}
	span := lineSize * linesPerEntry
	shift := uint(0)
	for 1<<shift != span {
		shift++
		if shift > 24 {
			return 0, fmt.Errorf("%w: linesPerEntry*lineSize = %d is not a power of two <= 16 MiB", ErrConfig, span)
		}
	}
	return shift, nil
}

// newDirectory builds a directory of `entries` total entries with the given
// associativity, covering groups of linesPerEntry lines of lineSize bytes.
// A geometry checkGeometry refuses returns its error.
func newDirectory(entries, assoc, linesPerEntry, lineSize int) (*directory, error) {
	shift, err := checkGeometry(entries, assoc, linesPerEntry, lineSize)
	if err != nil {
		return nil, err
	}
	entries -= entries % assoc
	return &directory{
		groupShift: shift,
		numSets:    uint64(entries / assoc),
		assoc:      assoc,
		sets:       make([]dirEntry, entries),
	}, nil
}

// group returns the directory group base address containing line.
func (d *directory) group(line mem.Addr) mem.Addr {
	return line &^ (1<<d.groupShift - 1)
}

// base returns the group base address entry e tracks.
func (d *directory) base(e dirEntry) mem.Addr {
	return mem.Addr(e.group) << d.groupShift
}

// groupRange returns the address range covered by group g.
func (d *directory) groupRange(g mem.Addr) mem.Range {
	return mem.Range{Lo: g, Hi: g + 1<<d.groupShift}
}

// set returns the entries of g's set and g's group index.
func (d *directory) set(g mem.Addr) ([]dirEntry, uint32) {
	idx := uint64(g) >> d.groupShift
	s := idx % d.numSets * uint64(d.assoc)
	return d.sets[s : s+uint64(d.assoc)], uint32(idx)
}

// lookup finds the entry for group g without allocating.
func (d *directory) lookup(g mem.Addr) *dirEntry {
	set, idx := d.set(g)
	for i := range set {
		if set[i].valid && set[i].group == idx {
			return &set[i]
		}
	}
	return nil
}

// addSharer records that chiplet caches a line of g's group, allocating an
// entry if needed. When the set is full an LRU entry is evicted and
// returned: its sharers must be invalidated by the caller (directory
// inclusion), which is the eviction churn the paper blames for HMG's losses
// on low-reuse workloads.
func (d *directory) addSharer(g mem.Addr, chiplet int) (evicted dirEntry, wasEvicted bool) {
	set, idx := d.set(g)
	for i := range set {
		if set[i].valid && set[i].group == idx {
			set[i].sharers |= 1 << chiplet
			promote(set, i)
			return dirEntry{}, false
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = len(set) - 1
		evicted = set[victim]
		wasEvicted = true
	}
	set[victim] = dirEntry{group: idx, sharers: 1 << chiplet, valid: true}
	promote(set, victim)
	return evicted, wasEvicted
}

// sharers returns the sharer mask of g's group (0 when untracked).
func (d *directory) sharers(g mem.Addr) uint16 {
	if e := d.lookup(g); e != nil {
		return e.sharers
	}
	return 0
}

// clearOthers removes all sharer bits of g's group except keep's, returning
// the removed mask. The caller invalidates the removed sharers' copies.
func (d *directory) clearOthers(g mem.Addr, keep int) uint16 {
	e := d.lookup(g)
	if e == nil {
		return 0
	}
	removed := e.sharers &^ (1 << keep)
	e.sharers &= 1 << keep
	if e.sharers == 0 {
		e.valid = false
	}
	return removed
}

// promote moves set[i] to MRU position.
func promote(set []dirEntry, i int) {
	if i == 0 {
		return
	}
	e := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = e
}

// entries returns the directory capacity in entries.
func (d *directory) entries() int { return len(d.sets) }

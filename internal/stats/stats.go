// Package stats collects simulation counters.
//
// Every component of the simulated machine (caches, links, DRAM, command
// processors) increments named counters in a Sheet. Sheets are cheap to
// merge, diff, and print, and the experiment harness turns them into the
// rows of the paper's figures.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Counter identifies one statistic: a dense index into the sheet's counter
// array. The access-path hot loops bump several counters per cache line, so
// a counter is an integer — Sheet.Add is an array increment — while the
// external name (used in JSON, traces, and figures) lives in a parallel
// name table. Counters are grouped by component so the energy model and the
// figure harness can aggregate by subsystem.
type Counter int32

// Cache and memory counters.
const (
	L1Hits Counter = iota
	L1Misses
	L1Accesses
	L2Hits
	L2Misses
	L2Accesses
	L2RemoteHits // served by another chiplet's L2 (HMG home node)
	L2Writebacks
	L2WriteThru
	L2Invalidates
	L2FlushOps
	L2InvOps
	L3Hits
	L3Misses
	L3Accesses
	L3Writebacks
	DRAMReads
	DRAMWrites
	LDSAccesses

	// Network counters, measured in flits (Figure 10's three classes).
	FlitsL1L2
	FlitsL2L3
	FlitsRemote
	// FlitsInterGPU counts remote flits that additionally crossed the
	// inter-GPU interconnect (MGPU systems; a subset of FlitsRemote).
	FlitsInterGPU

	// Synchronization and command-processor counters.
	AcquiresIssued
	ReleasesIssued
	AcquiresElided
	ReleasesElided
	SyncCycles
	CPMessages
	KernelsLaunched
	TableCoarsening
	TablePeakUse
	DirEvictions
	DirInvals

	// Timing counters.
	TotalCycles
	ComputeCycles
	MemoryCycles
	StaleReads // functional checker violations; must be 0

	numCounters // sentinel: the dense array size
)

// counterNames maps each Counter to its external name. The names are the
// stable serialization format: JSON sheets, traces, and the figure harness
// all key on them, never on the integer values.
var counterNames = [numCounters]string{
	L1Hits:        "l1.hits",
	L1Misses:      "l1.misses",
	L1Accesses:    "l1.accesses",
	L2Hits:        "l2.hits",
	L2Misses:      "l2.misses",
	L2Accesses:    "l2.accesses",
	L2RemoteHits:  "l2.remote_hits",
	L2Writebacks:  "l2.writebacks",
	L2WriteThru:   "l2.write_through",
	L2Invalidates: "l2.invalidated_lines",
	L2FlushOps:    "l2.flush_ops",
	L2InvOps:      "l2.invalidate_ops",
	L3Hits:        "l3.hits",
	L3Misses:      "l3.misses",
	L3Accesses:    "l3.accesses",
	L3Writebacks:  "l3.writebacks",
	DRAMReads:     "dram.reads",
	DRAMWrites:    "dram.writes",
	LDSAccesses:   "lds.accesses",

	FlitsL1L2:     "noc.flits.l1_l2",
	FlitsL2L3:     "noc.flits.l2_l3",
	FlitsRemote:   "noc.flits.remote",
	FlitsInterGPU: "noc.flits.inter_gpu",

	AcquiresIssued:  "sync.acquires",
	ReleasesIssued:  "sync.releases",
	AcquiresElided:  "sync.acquires_elided",
	ReleasesElided:  "sync.releases_elided",
	SyncCycles:      "sync.exposed_cycles",
	CPMessages:      "cp.messages",
	KernelsLaunched: "cp.kernels_launched",
	TableCoarsening: "cp.table_coarsenings",
	TablePeakUse:    "cp.table_peak_entries",
	DirEvictions:    "hmg.directory_evictions",
	DirInvals:       "hmg.directory_invalidations",

	TotalCycles:   "time.total_cycles",
	ComputeCycles: "time.compute_cycles",
	MemoryCycles:  "time.memory_cycles",
	StaleReads:    "check.stale_reads",
}

// counterByName inverts counterNames for UnmarshalJSON and tooling.
var counterByName = func() map[string]Counter {
	m := make(map[string]Counter, numCounters)
	for c, name := range counterNames {
		m[name] = Counter(c)
	}
	return m
}()

// String returns the counter's external name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int32(c))
	}
	return counterNames[c]
}

// CounterByName resolves an external counter name.
func CounterByName(name string) (Counter, bool) {
	c, ok := counterByName[name]
	return c, ok
}

// maxSemantics registers the counters that are levels or peaks rather than
// additive tallies: a running high-water mark (TablePeakUse), a cumulative
// value written with Set each launch (TableCoarsening), or an end-of-run
// absolute (TotalCycles, StaleReads). Combining two observations of such a
// counter must take the maximum — summing two peaks produces a bogus peak —
// and a windowed delta must report the current absolute value.
var maxSemantics = func() [numCounters]bool {
	var m [numCounters]bool
	for _, c := range []Counter{
		TablePeakUse, TableCoarsening, TotalCycles, StaleReads,
	} {
		m[c] = true
	}
	return m
}()

// IsMax reports whether counter c carries peak/level semantics: Merge takes
// the maximum for it, and DeltaFrom reports its absolute value.
//
//cpelide:noalloc
func IsMax(c Counter) bool { return c >= 0 && c < numCounters && maxSemantics[c] }

const touchedWords = (int(numCounters) + 63) / 64

// Sheet is a set of named counters, stored as a dense array indexed by
// Counter with a touched bitset (a touched-but-zero counter still appears in
// JSON and Counters, matching the former map semantics). A nonzero counter is
// touched whatever its bit says, so the bit only has to be set when a write
// leaves a counter at zero; every writer keeps that rule, which spares Add a
// read-modify-write of the bitset on every increment. The zero value is
// ready to use; methods on a nil Sheet are no-ops so components can be run
// without instrumentation.
type Sheet struct {
	v       [numCounters]uint64
	touched [touchedWords]uint64

	// extra preserves counters unmarshaled from JSON whose names this build
	// does not know (e.g. a results file from a newer schema). Nil in every
	// sheet that never saw such a name.
	extra map[string]uint64
}

// New returns an empty Sheet.
func New() *Sheet { return &Sheet{} }

//cpelide:noalloc
func (s *Sheet) touch(c Counter) { s.touched[c>>6] |= 1 << (c & 63) }

//cpelide:noalloc
func (s *Sheet) isTouched(c Counter) bool {
	return s.v[c] != 0 || s.touched[c>>6]&(1<<(c&63)) != 0
}

// Add increments counter c by n.
//
//cpelide:noalloc
func (s *Sheet) Add(c Counter, n uint64) {
	if s == nil || c < 0 || c >= numCounters {
		return
	}
	s.v[c] += n
	if s.v[c] == 0 { // n == 0, or a wrap
		s.touch(c)
	}
}

// Inc increments counter c by one.
//
//cpelide:noalloc
func (s *Sheet) Inc(c Counter) { s.Add(c, 1) }

// Max raises counter c to n if n is larger than the current value.
//
//cpelide:noalloc
func (s *Sheet) Max(c Counter, n uint64) {
	if s == nil || c < 0 || c >= numCounters {
		return
	}
	if s.v[c] < n {
		s.v[c] = n
		// Touch only on an actual raise, mirroring the former map semantics:
		// a Max that does not win leaves an absent counter absent.
		s.touch(c)
	}
}

// Get returns the value of counter c (zero if never incremented).
//
//cpelide:noalloc
func (s *Sheet) Get(c Counter) uint64 {
	if s == nil || c < 0 || c >= numCounters {
		return 0
	}
	return s.v[c]
}

// Set overwrites counter c with n.
//
//cpelide:noalloc
func (s *Sheet) Set(c Counter, n uint64) {
	if s == nil || c < 0 || c >= numCounters {
		return
	}
	s.v[c] = n
	s.touch(c)
}

// Merge combines every counter of o into s: additive counters sum, while
// peak/level counters (IsMax) take the maximum — merging two sheets must not
// add their table-occupancy peaks together.
func (s *Sheet) Merge(o *Sheet) {
	if s == nil || o == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		if !o.isTouched(c) {
			continue
		}
		n := o.v[c]
		if maxSemantics[c] {
			if s.v[c] < n {
				s.v[c] = n
			}
		} else {
			s.v[c] += n
		}
		s.touch(c)
	}
	for name, n := range o.extra {
		s.addExtra(name, n)
	}
}

func (s *Sheet) addExtra(name string, n uint64) {
	if s.extra == nil {
		s.extra = make(map[string]uint64)
	}
	s.extra[name] += n
}

// DeltaFrom returns the counter activity since snapshot prev (typically a
// Clone taken at a kernel boundary): additive counters report the increase,
// peak/level counters (IsMax) report their current absolute value. Zero
// entries are omitted, so merging every windowed delta of a run (sums for
// additive counters, maxima for peak counters) reconstructs the run total.
func (s *Sheet) DeltaFrom(prev *Sheet) *Sheet {
	d := New()
	if s == nil {
		return d
	}
	for c := Counter(0); c < numCounters; c++ {
		if !s.isTouched(c) {
			continue
		}
		n := s.v[c]
		if maxSemantics[c] {
			if n != 0 {
				d.v[c] = n
				d.touch(c)
			}
			continue
		}
		if inc := n - prev.Get(c); inc != 0 {
			d.v[c] = inc
			d.touch(c)
		}
	}
	return d
}

// Equal reports whether s and o hold identical nonzero counters.
func (s *Sheet) Equal(o *Sheet) bool {
	for c := Counter(0); c < numCounters; c++ {
		if s.Get(c) != o.Get(c) {
			return false
		}
	}
	return extraEqual(s, o)
}

func extraEqual(s, o *Sheet) bool {
	get := func(sh *Sheet, name string) uint64 {
		if sh == nil {
			return 0
		}
		return sh.extra[name]
	}
	if s != nil {
		for name, n := range s.extra {
			if n != 0 && get(o, name) != n {
				return false
			}
		}
	}
	if o != nil {
		for name, n := range o.extra {
			if n != 0 && get(s, name) != n {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s *Sheet) Clone() *Sheet {
	c := New()
	if s != nil {
		*c = *s
		if s.extra != nil {
			c.extra = make(map[string]uint64, len(s.extra))
			for k, v := range s.extra {
				c.extra[k] = v
			}
		}
	}
	return c
}

// Reset zeroes all counters.
func (s *Sheet) Reset() {
	if s == nil {
		return
	}
	*s = Sheet{}
}

// Counters returns the touched counters, sorted by name.
func (s *Sheet) Counters() []Counter {
	if s == nil {
		return nil
	}
	var out []Counter
	for c := Counter(0); c < numCounters; c++ {
		if s.isTouched(c) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return counterNames[out[i]] < counterNames[out[j]] })
	return out
}

// String renders the sheet as an aligned table, one counter per line.
func (s *Sheet) String() string {
	var b strings.Builder
	for _, c := range s.Counters() {
		fmt.Fprintf(&b, "%-28s %12d\n", c, s.v[c])
	}
	return b.String()
}

// MarshalJSON renders the sheet as a flat JSON object of counters, keyed by
// external name (encoding/json sorts the keys).
func (s *Sheet) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	m := make(map[string]uint64, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		if s.isTouched(c) {
			m[counterNames[c]] = s.v[c]
		}
	}
	for name, n := range s.extra {
		m[name] = n
	}
	return json.Marshal(m)
}

// UnmarshalJSON restores a sheet marshaled by MarshalJSON. Names this build
// does not know are preserved verbatim (and re-emitted by MarshalJSON).
func (s *Sheet) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for name, n := range m {
		if c, ok := counterByName[name]; ok {
			s.v[c] = n
			s.touch(c)
			continue
		}
		if s.extra == nil {
			s.extra = make(map[string]uint64)
		}
		s.extra[name] = n
	}
	return nil
}

// Ratio returns a/b as float64, or 0 when b is 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

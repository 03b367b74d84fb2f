package mem

import "fmt"

// Memory is the versioned backing store behind all caches. It tracks two
// version numbers per cache line:
//
//   - latest: incremented by every store, wherever it lands. This is the
//     value a correctly synchronized reader must observe.
//   - committed: the version visible at the inter-chiplet ordering point
//     (L3/HBM). Write-through stores and L2 dirty-line flushes advance it.
//
// A read that misses all caches observes committed. A read that hits a cache
// observes the cached line's version. Comparing the observation against
// latest implements the functional staleness checker described in DESIGN.md:
// any mismatch means the coherence policy under test elided a flush or an
// invalidation that correctness required.
type Memory struct {
	base      Addr
	lineShift uint
	latest    []uint32
	committed []uint32

	staleReads uint64
	lastStale  Addr
}

// NewMemory covers [base, base+size) with lines of lineSize bytes. A line
// size that is not a power of two <= 64 KiB, or a bound whose last line
// index is MaxLines or more (the most a Cache way can hold), returns an
// error wrapping ErrGeometry before anything is allocated.
func NewMemory(base Addr, size uint64, lineSize int) (*Memory, error) {
	shift, err := log2(lineSize, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: memory line size %d is not a power of two <= 64 KiB", ErrGeometry, lineSize)
	}
	if limit := uint64(MaxLines) << shift; size > limit || uint64(base) > limit-size {
		return nil, fmt.Errorf("%w: memory [%#x, +%d) reaches past line index %d (%d B lines)",
			ErrGeometry, uint64(base), size, MaxLines-1, lineSize)
	}
	n := (size + uint64(lineSize) - 1) >> shift
	return &Memory{
		base:      base,
		lineShift: shift,
		latest:    make([]uint32, n),
		committed: make([]uint32, n),
	}, nil
}

// LineShift returns log2 of the line size.
func (m *Memory) LineShift() uint { return m.lineShift }

// LineOf returns the line address (byte address of the line's first byte)
// containing addr.
func (m *Memory) LineOf(addr Addr) Addr {
	return addr &^ (1<<m.lineShift - 1)
}

func (m *Memory) index(line Addr) int {
	return int((line - m.base) >> m.lineShift)
}

// Store records a new store to line and returns the new latest version.
func (m *Memory) Store(line Addr) uint32 {
	i := m.index(line)
	m.latest[i]++
	return m.latest[i]
}

// Commit advances the committed version of line to at least ver, modeling
// the line reaching the ordering point (write-through or dirty writeback).
func (m *Memory) Commit(line Addr, ver uint32) {
	i := m.index(line)
	if m.committed[i] < ver {
		m.committed[i] = ver
	}
}

// Committed returns the version visible at the ordering point.
func (m *Memory) Committed(line Addr) uint32 { return m.committed[m.index(line)] }

// Latest returns the newest version written anywhere.
func (m *Memory) Latest(line Addr) uint32 { return m.latest[m.index(line)] }

// Observe checks a read observation: a reader saw version ver for line. It
// records a staleness violation when ver is older than the latest version.
func (m *Memory) Observe(line Addr, ver uint32) bool {
	i := m.index(line)
	if ver < m.latest[i] {
		m.staleReads++
		m.lastStale = line
		return false
	}
	return true
}

// StaleReads returns the number of staleness violations observed so far.
// It must be zero for every correct coherence policy.
func (m *Memory) StaleReads() uint64 { return m.staleReads }

// LastStaleLine returns the line address of the most recent violation, for
// diagnostics.
func (m *Memory) LastStaleLine() Addr { return m.lastStale }

// Lines returns the number of lines covered.
func (m *Memory) Lines() int { return len(m.latest) }

// ImageHash returns an FNV-1a digest of the full version image (latest and
// committed, in line order). Two runs of the same workload under different
// but correct protocols produce identical images: per-line store counts are
// protocol-independent, and a correct finalize commits everything — so any
// digest divergence means a protocol lost, reordered, or failed to write
// back an update. The crosscheck campaign compares this across protocols.
func (m *Memory) ImageHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= prime
		}
	}
	for _, v := range m.latest {
		mix(v)
	}
	for _, v := range m.committed {
		mix(v)
	}
	return h
}

// Reset clears all versions and violations.
func (m *Memory) Reset() {
	for i := range m.latest {
		m.latest[i] = 0
		m.committed[i] = 0
	}
	m.staleReads = 0
	m.lastStale = 0
}

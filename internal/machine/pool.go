package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
)

// idle holds released machines for reuse, oldest first. A 4-chiplet
// machine's cache arrays are ~13.6 MB, so the list is bounded by
// GOMAXPROCS: enough for every thread that can be simulating to find a
// machine on its next run, and no more. (sync.Pool is not used: its per-P
// private slots and victim cache kept extra machines alive, which raised a
// served workload's p95 RSS by almost half.)
var idle struct {
	sync.Mutex
	list []*Machine
}

// leaseHook holds the observer installed by SetLeaseHook, if any.
var leaseHook atomic.Pointer[func(m *Machine, leased bool)]

// Acquire returns a machine for cfg covering bounds and counting into
// sheet, to be handed back with Release when the run is over. It reuses an
// idle machine built for an equal configuration when there is one: the
// cache arrays are kept and cooled with Reset's O(1) per-cache epoch bump,
// while the memory image, page table and fabric are built afresh for
// bounds and sheet, and Trace starts cleared. A run cannot tell a
// reused machine from one returned by New. The page table is never
// recycled in place because observers may hold its lookup past the run
// (oracle.Oracle.Bind captures PageTable.HomeIfPlaced).
func Acquire(cfg config.GPU, bounds mem.Range, sheet *stats.Sheet) (*Machine, error) {
	m := takeIdle(cfg)
	if m == nil {
		var err error
		if m, err = New(cfg, bounds, sheet); err != nil {
			return nil, err
		}
		noteLease(m, true)
		return m, nil
	}
	noteLease(m, true)
	if err := m.bind(bounds, sheet); err != nil {
		m.Release()
		return nil, err
	}
	m.resetCaches()
	return m, nil
}

// takeIdle removes and returns the most recently released idle machine
// whose configuration equals cfg, or nil.
func takeIdle(cfg config.GPU) *Machine {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		m := idle.list[i]
		if m.Cfg != cfg {
			continue
		}
		copy(idle.list[i:], idle.list[i+1:])
		idle.list[len(idle.list)-1] = nil
		idle.list = idle.list[:len(idle.list)-1]
		return m
	}
	return nil
}

// Release hands m back for reuse by a later Acquire; the caller must not
// touch m afterwards. The run-scoped state is dropped right away so an
// idle machine pins only its cache arrays. When GOMAXPROCS machines are
// already idle, the oldest is dropped to make room.
func (m *Machine) Release() {
	m.Sheet, m.Mem, m.Pages, m.Fabric = nil, nil, nil, nil
	m.Trace = nil
	noteLease(m, false)
	idle.Lock()
	defer idle.Unlock()
	if limit := runtime.GOMAXPROCS(0); len(idle.list) >= limit {
		n := copy(idle.list, idle.list[len(idle.list)-limit+1:])
		clear(idle.list[n:])
		idle.list = idle.list[:n]
	}
	idle.list = append(idle.list, m)
}

// Drain drops every idle machine, so the next Acquire of any configuration
// builds one with New.
func Drain() {
	idle.Lock()
	defer idle.Unlock()
	clear(idle.list)
	idle.list = idle.list[:0]
}

// SetLeaseHook installs f to observe the machine pool, for tests that
// check no machine is ever leased to two runs at once: f(m, true) runs
// once Acquire has taken m for a run, and f(m, false) before Release makes
// m available again, so the calls for any one machine alternate. A nil f
// removes the hook.
func SetLeaseHook(f func(m *Machine, leased bool)) {
	if f == nil {
		leaseHook.Store(nil)
		return
	}
	leaseHook.Store(&f)
}

// noteLease reports a lease change to the SetLeaseHook observer.
func noteLease(m *Machine, leased bool) {
	if f := leaseHook.Load(); f != nil {
		(*f)(m, leased)
	}
}

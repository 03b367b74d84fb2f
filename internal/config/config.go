// Package config describes the simulated machine.
//
// The defaults reproduce Table I of the CPElide paper (MICRO 2024): an
// AMD Radeon VII-derived multi-chiplet GPU with 60 CUs per chiplet, 8 MB of
// L2 per chiplet, a 16 MB shared L3 (the inter-chiplet ordering point), and
// a 768 GB/s inter-chiplet crossbar.
package config

import (
	"errors"
	"fmt"
)

// GPU holds every machine parameter the simulator consumes. All latencies
// are in GPU core cycles at ClockMHz unless noted.
type GPU struct {
	// Topology.
	NumChiplets   int // total chiplets: 1 (monolithic), 2, 4, 6, 7 in the paper
	CUsPerChiplet int // 60
	// NumGPUs groups the chiplets into separate GPU packages (an MGPU
	// system of MCM-GPUs, Section VI). 1 = the paper's single MCM-GPU.
	// Must divide NumChiplets. Chiplets on different GPUs communicate over
	// the inter-GPU interconnect instead of the on-package crossbar.
	NumGPUs int

	// Clocks.
	ClockMHz   int // 1801
	CPClockMHz int // 1500: command processors run at their own clock

	// L1 data cache, one per CU.
	L1SizeBytes int // 16 KiB
	L1Assoc     int // 16
	L1Latency   int // 140 cycles

	// LDS (scratchpad), one per CU.
	LDSSizeBytes int // 64 KiB
	LDSLatency   int // 65 cycles

	// L2, one per chiplet, shared by the chiplet's CUs.
	L2SizeBytes     int // 8 MiB
	L2Assoc         int // 32
	L2LocalLatency  int // 269 cycles
	L2RemoteLatency int // 390 cycles (access forwarded to another chiplet)

	// L3, the shared LLC; banked across chiplets by page home.
	L3SizeBytes int // 16 MiB total
	L3Assoc     int // 16
	L3Latency   int // 330 cycles

	// Memory.
	DRAMLatency   int     // additional cycles past L3 for an HBM access
	DRAMBWBytesCy float64 // aggregate effective HBM bandwidth in bytes per core cycle

	// Bandwidth of one chiplet's L2 (all banks) and of one L3 bank, in
	// bytes per core cycle; these bound kernel throughput when the access
	// stream exceeds what the SRAM arrays can stream.
	L2BWBytesCy float64
	L3BWBytesCy float64

	// Interconnect.
	LineSize          int     // 64 B
	FlitSize          int     // bytes per flit
	InterChipletBWGBs float64 // 768 GB/s aggregate crossbar bandwidth
	// Inter-GPU interconnect (MGPU systems): NVLink/xGMI-class.
	InterGPUBWGBs   float64 // 64 GB/s per direction
	CrossGPULatency int     // cumulative latency of a cross-GPU access

	// Command processors (Section IV-B).
	CPLatencyUS        float64 // 2 us baseline CP processing per kernel
	CPElideOverheadUS  float64 // 6 us table lookup + acquire/release generation
	CPUnicastLatency   int     // 65 cycles global<->local CP crossbar
	CPBroadcastLatency int     // 100 cycles
	CPMemLatency       int     // 31 CP-clock cycles to the CP's private memory
	// DriverRoundTripUS is the host round trip paid per kernel when
	// implicit synchronization is managed at the driver instead of the CP
	// (the Section VI alternative; prior work reports significant latency).
	DriverRoundTripUS float64

	// Cache maintenance: lines per cycle an L2 can walk during a flush or
	// invalidate (banked, pipelined walks).
	CacheWalkLinesPerCycle int

	// Memory-level parallelism cap: how many outstanding memory accesses a
	// CU's wavefronts overlap. Workloads scale this with their own factor.
	BaseMLP int

	// CPElide table sizing (Section III-A).
	TableMaxDataStructures int // 8 data structures per kernel
	TableKernelWindow      int // 8 kernels tracked -> 64 entries

	PageSize int // first-touch placement granularity, 4 KiB
}

// Default returns the Table I configuration with n chiplets.
// n == 1 yields the "equivalent monolithic GPU" used by Figure 2: the same
// total CU count and aggregate L2 capacity as a 4-chiplet system but with a
// single shared L2 as the ordering point.
func Default(n int) GPU {
	g := GPU{
		NumChiplets:   n,
		CUsPerChiplet: 60,
		NumGPUs:       1,

		ClockMHz:   1801,
		CPClockMHz: 1500,

		L1SizeBytes: 16 << 10,
		L1Assoc:     16,
		L1Latency:   140,

		LDSSizeBytes: 64 << 10,
		LDSLatency:   65,

		L2SizeBytes:     8 << 20,
		L2Assoc:         32,
		L2LocalLatency:  269,
		L2RemoteLatency: 390,

		L3SizeBytes: 16 << 20,
		L3Assoc:     16,
		L3Latency:   330,

		DRAMLatency:   170,
		DRAMBWBytesCy: 200, // ~360 GB/s effective HBM2 bandwidth at 1801 MHz

		L2BWBytesCy: 144, // ~260 GB/s per chiplet CU-side streaming rate
		L3BWBytesCy: 256, // ~460 GB/s per L3 bank

		LineSize:          64,
		FlitSize:          16,
		InterChipletBWGBs: 768,
		InterGPUBWGBs:     64,
		CrossGPULatency:   780, // ~2x the on-package remote latency

		CPLatencyUS:        2,
		CPElideOverheadUS:  6,
		CPUnicastLatency:   65,
		CPBroadcastLatency: 100,
		CPMemLatency:       31,
		DriverRoundTripUS:  4,

		CacheWalkLinesPerCycle: 1024,
		BaseMLP:                48,

		TableMaxDataStructures: 8,
		TableKernelWindow:      8,

		PageSize: 4 << 10,
	}
	return g
}

// Monolithic returns the infeasible-to-build monolithic GPU equivalent to an
// n-chiplet system (Figure 2): one die holding n*60 CUs and an n*8 MB shared
// L2, with no inter-chiplet indirection.
func Monolithic(equivalentChiplets int) GPU {
	g := Default(1)
	g.CUsPerChiplet = 60 * equivalentChiplets
	g.L2SizeBytes = (8 << 20) * equivalentChiplets
	g.L2BWBytesCy *= float64(equivalentChiplets)
	g.L3BWBytesCy *= float64(equivalentChiplets)
	return g
}

// TotalCUs returns the CU count across all chiplets.
func (g GPU) TotalCUs() int { return g.NumChiplets * g.CUsPerChiplet }

// ChipletsPerGPU returns the chiplet count of one GPU package.
func (g GPU) ChipletsPerGPU() int {
	if g.NumGPUs <= 1 {
		return g.NumChiplets
	}
	return g.NumChiplets / g.NumGPUs
}

// GPUOf returns the GPU package housing chiplet c.
func (g GPU) GPUOf(c int) int {
	if g.NumGPUs <= 1 {
		return 0
	}
	return c / g.ChipletsPerGPU()
}

// InterGPUBytesPerCycle converts the inter-GPU bandwidth into bytes per
// core cycle.
func (g GPU) InterGPUBytesPerCycle() float64 {
	return g.InterGPUBWGBs * 1e9 / (float64(g.ClockMHz) * 1e6)
}

// IsMonolithic reports whether the L2 is the GPU-wide ordering point, i.e.
// there is no inter-chiplet level above it. Kernel-boundary implicit
// synchronization then stops at the L1s, exactly like pre-chiplet GPUs.
func (g GPU) IsMonolithic() bool { return g.NumChiplets == 1 }

// L3BankBytes returns the per-chiplet slice of the shared L3.
func (g GPU) L3BankBytes() int { return g.L3SizeBytes / g.NumChiplets }

// LinkBytesPerCycle converts the aggregate inter-chiplet bandwidth into
// bytes per GPU core cycle.
func (g GPU) LinkBytesPerCycle() float64 {
	return g.InterChipletBWGBs * 1e9 / (float64(g.ClockMHz) * 1e6)
}

// CPLatencyCycles converts the CP processing latency to core cycles.
func (g GPU) CPLatencyCycles() int {
	return int(g.CPLatencyUS * float64(g.ClockMHz))
}

// CPElideOverheadCycles converts the CPElide table-processing overhead to
// core cycles.
func (g GPU) CPElideOverheadCycles() int {
	return int(g.CPElideOverheadUS * float64(g.ClockMHz))
}

// DriverRoundTripCycles converts the host round trip to core cycles.
func (g GPU) DriverRoundTripCycles() int {
	return int(g.DriverRoundTripUS * float64(g.ClockMHz))
}

// TableEntries returns the Chiplet Coherence Table capacity.
func (g GPU) TableEntries() int {
	return g.TableMaxDataStructures * g.TableKernelWindow
}

// MaxChiplets bounds NumChiplets: the HMG directory keeps one sharer bit
// per chiplet in a 16-bit mask.
const MaxChiplets = 16

// Validate reports the first structural problem with the configuration.
func (g GPU) Validate() error {
	switch {
	case g.NumChiplets < 1 || g.NumChiplets > MaxChiplets:
		return fmt.Errorf("config: NumChiplets %d must be in [1, %d]", g.NumChiplets, MaxChiplets)
	case g.CUsPerChiplet < 1:
		return errors.New("config: CUsPerChiplet must be >= 1")
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("config: LineSize %d must be a positive power of two", g.LineSize)
	case g.PageSize < g.LineSize || g.PageSize&(g.PageSize-1) != 0:
		return fmt.Errorf("config: PageSize %d must be a power of two >= LineSize", g.PageSize)
	case g.L1SizeBytes < g.LineSize*g.L1Assoc:
		return errors.New("config: L1 smaller than one set")
	case g.L2SizeBytes < g.LineSize*g.L2Assoc:
		return errors.New("config: L2 smaller than one set")
	case g.L3SizeBytes < g.NumChiplets*g.LineSize*g.L3Assoc:
		return errors.New("config: L3 bank smaller than one set")
	case g.ClockMHz <= 0 || g.CPClockMHz <= 0:
		return errors.New("config: clocks must be positive")
	case g.InterChipletBWGBs <= 0 && g.NumChiplets > 1:
		return errors.New("config: inter-chiplet bandwidth must be positive")
	case g.NumGPUs < 1 || g.NumChiplets%max(g.NumGPUs, 1) != 0:
		return fmt.Errorf("config: NumGPUs %d must divide NumChiplets %d", g.NumGPUs, g.NumChiplets)
	case g.NumGPUs > 1 && (g.InterGPUBWGBs <= 0 || g.CrossGPULatency <= 0):
		return errors.New("config: MGPU systems need inter-GPU bandwidth and latency")
	case g.TableMaxDataStructures <= 0 || g.TableKernelWindow <= 0:
		return errors.New("config: CPElide table dimensions must be positive")
	case g.BaseMLP <= 0:
		return errors.New("config: BaseMLP must be positive")
	case g.L2BWBytesCy <= 0 || g.L3BWBytesCy <= 0 || g.DRAMBWBytesCy <= 0:
		return errors.New("config: bandwidths must be positive")
	case g.CacheWalkLinesPerCycle <= 0:
		return errors.New("config: CacheWalkLinesPerCycle must be positive")
	}
	return nil
}

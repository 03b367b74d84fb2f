// Package noc accounts for on-chip and inter-chiplet network traffic.
//
// Figure 10 of the paper breaks interconnect traffic into three flit
// classes: L1-to-L2 (intra-chiplet), L2-to-L3 (a chiplet's L2 talking to its
// local L3 bank), and remote (anything crossing the inter-chiplet crossbar).
// Fabric keeps those counters plus per-chiplet crossbar-port and HBM byte
// totals, which the timing model turns into bandwidth-occupancy lower bounds.
package noc

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/stats"
)

// Fabric models the GPU's interconnect as an accounting fabric: transfers
// are attributed to flit classes and to the ports they occupy. Latency is
// handled by the timing model; Fabric provides the byte volumes.
type Fabric struct {
	flitSize int
	sheet    *stats.Sheet
	perGPU   int // chiplets per GPU package; chiplet c sits on package c/perGPU
	faults   *faults.Injector

	portBytes []uint64 // per chiplet: bytes crossing that chiplet's crossbar port
	dramBytes []uint64 // per chiplet: bytes to/from the chiplet's HBM partition

	interGPUBytes uint64 // bytes crossing the inter-GPU interconnect
}

// ErrConfig reports an invalid fabric configuration; New returns it instead
// of panicking so embedding simulations surface it as a run error.
var ErrConfig = errors.New("noc: invalid config")

// New builds a Fabric for n chiplets, recording flits into sheet. perGPU is
// the chiplet count of one GPU package (config.GPU.ChipletsPerGPU; n when
// all chiplets share one package).
func New(n, flitSize int, sheet *stats.Sheet, perGPU int) (*Fabric, error) {
	if flitSize <= 0 {
		return nil, fmt.Errorf("%w: flit size %d must be positive", ErrConfig, flitSize)
	}
	if perGPU <= 0 {
		return nil, fmt.Errorf("%w: chiplets per GPU %d must be positive", ErrConfig, perGPU)
	}
	return &Fabric{
		flitSize:  flitSize,
		sheet:     sheet,
		perGPU:    perGPU,
		portBytes: make([]uint64, n),
		dramBytes: make([]uint64, n),
	}, nil
}

// SetFaults installs a fault injector so remote transfers occurring inside a
// link-degradation window are classed separately.
func (f *Fabric) SetFaults(inj *faults.Injector) { f.faults = inj }

func (f *Fabric) flits(bytes int) uint64 {
	return uint64((bytes + f.flitSize - 1) / f.flitSize)
}

// L1L2 records an intra-chiplet transfer between a CU's L1 and the chiplet
// L2.
func (f *Fabric) L1L2(bytes int) {
	f.sheet.Add(stats.FlitsL1L2, f.flits(bytes))
}

// L2L3 records a transfer between chiplet from's L2 and the L3 bank homed at
// chiplet home. When the bank is remote the transfer crosses the crossbar
// and is classed as remote traffic; otherwise it is L2-to-L3 traffic.
func (f *Fabric) L2L3(from, home, bytes int) {
	if from == home {
		f.sheet.Add(stats.FlitsL2L3, f.flits(bytes))
		return
	}
	f.Remote(from, home, bytes)
}

// Remote records a transfer crossing the crossbar between two chiplets'
// ports. Both ports are occupied by the transfer, and transfers between
// chiplets on different GPU packages additionally occupy the inter-GPU
// interconnect.
func (f *Fabric) Remote(from, to, bytes int) {
	f.sheet.Add(stats.FlitsRemote, f.flits(bytes))
	if f.faults.LinkDegraded() {
		f.sheet.Add(stats.FlitsRemoteDegraded, f.flits(bytes))
	}
	f.portBytes[from] += uint64(bytes)
	if to != from {
		f.portBytes[to] += uint64(bytes)
	}
	if f.InterGPU(from, to) {
		f.sheet.Add(stats.FlitsInterGPU, f.flits(bytes))
		f.interGPUBytes += uint64(bytes)
	}
}

// InterGPU reports whether chiplets from and to sit on different GPU
// packages, i.e. whether a transfer between them crosses the inter-GPU link.
func (f *Fabric) InterGPU(from, to int) bool { return from/f.perGPU != to/f.perGPU }

// InterGPUBytes returns cumulative inter-GPU link bytes.
func (f *Fabric) InterGPUBytes() uint64 { return f.interGPUBytes }

// DRAM records a transfer between the L3 bank and HBM partition of a
// chiplet.
func (f *Fabric) DRAM(chiplet, bytes int) {
	f.dramBytes[chiplet] += uint64(bytes)
}

// PortBytes returns cumulative crossbar bytes through chiplet's port.
func (f *Fabric) PortBytes(chiplet int) uint64 { return f.portBytes[chiplet] }

// DRAMBytes returns cumulative HBM bytes for chiplet's partition.
func (f *Fabric) DRAMBytes(chiplet int) uint64 { return f.dramBytes[chiplet] }

// Chiplets returns the number of ports.
func (f *Fabric) Chiplets() int { return len(f.portBytes) }

// Reset zeroes the port and DRAM byte totals (the stats sheet is owned by
// the caller).
func (f *Fabric) Reset() {
	for i := range f.portBytes {
		f.portBytes[i] = 0
		f.dramBytes[i] = 0
	}
	f.interGPUBytes = 0
}

package noc

import (
	"errors"
	"testing"

	"repro/internal/stats"
)

func TestFlitClasses(t *testing.T) {
	sheet := stats.New()
	f := must(New(4, 16, sheet, 4))
	f.L1L2(72) // ceil(72/16) = 5 flits
	if got := sheet.Get(stats.FlitsL1L2); got != 5 {
		t.Errorf("L1L2 flits = %d, want 5", got)
	}
	f.L2L3(1, 1, 64) // local bank: L2-L3 class
	if got := sheet.Get(stats.FlitsL2L3); got != 4 {
		t.Errorf("L2L3 flits = %d, want 4", got)
	}
	f.L2L3(1, 2, 64) // remote bank: remote class, not L2-L3
	if got := sheet.Get(stats.FlitsL2L3); got != 4 {
		t.Errorf("remote-bank transfer counted as L2L3")
	}
	if got := sheet.Get(stats.FlitsRemote); got != 4 {
		t.Errorf("remote flits = %d, want 4", got)
	}
}

func TestPortAccounting(t *testing.T) {
	f := must(New(4, 16, stats.New(), 4))
	f.Remote(0, 2, 128)
	if f.PortBytes(0) != 128 || f.PortBytes(2) != 128 {
		t.Error("both endpoints' ports should be occupied")
	}
	if f.PortBytes(1) != 0 {
		t.Error("uninvolved port occupied")
	}
	f.Remote(3, 3, 64) // degenerate same-port transfer counted once
	if f.PortBytes(3) != 64 {
		t.Errorf("same-port transfer = %d", f.PortBytes(3))
	}
}

func TestDRAMAccountingAndReset(t *testing.T) {
	f := must(New(2, 16, stats.New(), 2))
	f.DRAM(1, 256)
	f.DRAM(1, 64)
	if f.DRAMBytes(1) != 320 || f.DRAMBytes(0) != 0 {
		t.Error("DRAM accounting wrong")
	}
	if f.Chiplets() != 2 {
		t.Errorf("Chiplets = %d", f.Chiplets())
	}
	f.Reset()
	if f.DRAMBytes(1) != 0 || f.PortBytes(1) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestInterGPUAccounting(t *testing.T) {
	sheet := stats.New()
	// Chiplets 0,1 on GPU 0; chiplets 2,3 on GPU 1.
	f := must(New(4, 16, sheet, 2))
	f.Remote(0, 1, 64) // same package
	if f.InterGPUBytes() != 0 {
		t.Error("same-package transfer counted as inter-GPU")
	}
	f.Remote(0, 3, 64) // crosses packages
	if f.InterGPUBytes() != 64 {
		t.Errorf("inter-GPU bytes = %d", f.InterGPUBytes())
	}
	if sheet.Get(stats.FlitsInterGPU) != 4 {
		t.Errorf("inter-GPU flits = %d", sheet.Get(stats.FlitsInterGPU))
	}
	// Inter-GPU flits are a subset of remote flits.
	if sheet.Get(stats.FlitsRemote) != 8 {
		t.Errorf("remote flits = %d", sheet.Get(stats.FlitsRemote))
	}
	f.Reset()
	if f.InterGPUBytes() != 0 {
		t.Error("Reset missed inter-GPU bytes")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, c := range []struct{ flit, perGPU int }{{0, 4}, {16, 0}, {16, -1}} {
		if _, err := New(4, c.flit, stats.New(), c.perGPU); !errors.Is(err, ErrConfig) {
			t.Errorf("New(flit %d, perGPU %d) = %v, want ErrConfig", c.flit, c.perGPU, err)
		}
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

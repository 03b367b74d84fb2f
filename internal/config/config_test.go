package config

import "testing"

// TestTableIParameters pins the Table I machine description the paper
// simulates; changing any of these changes the reproduction.
func TestTableIParameters(t *testing.T) {
	g := Default(4)
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"clock MHz", g.ClockMHz, 1801},
		{"CUs/chiplet", g.CUsPerChiplet, 60},
		{"total CUs", g.TotalCUs(), 240},
		{"L1 size", g.L1SizeBytes, 16 << 10},
		{"L1 latency", g.L1Latency, 140},
		{"LDS size", g.LDSSizeBytes, 64 << 10},
		{"LDS latency", g.LDSLatency, 65},
		{"L2 size", g.L2SizeBytes, 8 << 20},
		{"L2 assoc", g.L2Assoc, 32},
		{"L2 local latency", g.L2LocalLatency, 269},
		{"L2 remote latency", g.L2RemoteLatency, 390},
		{"L3 size", g.L3SizeBytes, 16 << 20},
		{"L3 latency", g.L3Latency, 330},
		{"line size", g.LineSize, 64},
		{"table entries", g.TableEntries(), 64},
		{"page size", g.PageSize, 4 << 10},
		{"CP unicast", g.CPUnicastLatency, 65},
		{"CP broadcast", g.CPBroadcastLatency, 100},
		{"CP memory latency", g.CPMemLatency, 31},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if g.InterChipletBWGBs != 768 {
		t.Errorf("inter-chiplet BW = %v GB/s, want 768", g.InterChipletBWGBs)
	}
	if g.CPLatencyUS != 2 || g.CPElideOverheadUS != 6 {
		t.Errorf("CP latencies = %v, %v us; want 2, 6", g.CPLatencyUS, g.CPElideOverheadUS)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, n := range []int{1, 2, 6, 7} {
		if err := Default(n).Validate(); err != nil {
			t.Errorf("Default(%d): %v", n, err)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	g := Default(4)
	// 768 GB/s at 1801 MHz = ~426 bytes/cycle.
	if bpc := g.LinkBytesPerCycle(); bpc < 425 || bpc > 428 {
		t.Errorf("LinkBytesPerCycle = %v", bpc)
	}
	if g.CPLatencyCycles() != 3602 {
		t.Errorf("CPLatencyCycles = %d", g.CPLatencyCycles())
	}
	if g.CPElideOverheadCycles() != 10806 {
		t.Errorf("CPElideOverheadCycles = %d", g.CPElideOverheadCycles())
	}
	if g.L3BankBytes() != 4<<20 {
		t.Errorf("L3BankBytes = %d", g.L3BankBytes())
	}
	if g.IsMonolithic() {
		t.Error("4-chiplet config reported monolithic")
	}
}

func TestMonolithicEquivalent(t *testing.T) {
	g := Monolithic(4)
	if !g.IsMonolithic() || g.NumChiplets != 1 {
		t.Error("monolithic shape wrong")
	}
	if g.CUsPerChiplet != 240 {
		t.Errorf("monolithic CUs = %d", g.CUsPerChiplet)
	}
	if g.L2SizeBytes != 32<<20 {
		t.Errorf("monolithic L2 = %d", g.L2SizeBytes)
	}
	d := Default(4)
	if g.L2BWBytesCy != 4*d.L2BWBytesCy {
		t.Error("monolithic L2 bandwidth not aggregated")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("monolithic invalid: %v", err)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	mutations := []func(*GPU){
		func(g *GPU) { g.NumChiplets = 0 },
		func(g *GPU) { g.NumChiplets = MaxChiplets + 1 },
		func(g *GPU) { g.CUsPerChiplet = 0 },
		func(g *GPU) { g.LineSize = 48 },
		func(g *GPU) { g.PageSize = 32 },
		func(g *GPU) { g.L1SizeBytes = 64 },
		func(g *GPU) { g.L2SizeBytes = 64 },
		func(g *GPU) { g.L3SizeBytes = 64 },
		func(g *GPU) { g.ClockMHz = 0 },
		func(g *GPU) { g.InterChipletBWGBs = 0 },
		func(g *GPU) { g.TableMaxDataStructures = 0 },
		func(g *GPU) { g.BaseMLP = 0 },
		func(g *GPU) { g.L2BWBytesCy = 0 },
		func(g *GPU) { g.CacheWalkLinesPerCycle = 0 },
	}
	for i, mutate := range mutations {
		g := Default(4)
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestMGPUTopology(t *testing.T) {
	g := Default(8)
	g.NumGPUs = 2
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.ChipletsPerGPU() != 4 {
		t.Errorf("chiplets/GPU = %d", g.ChipletsPerGPU())
	}
	if g.GPUOf(3) != 0 || g.GPUOf(4) != 1 || g.GPUOf(7) != 1 {
		t.Error("GPUOf mapping wrong")
	}
	if g.InterGPUBytesPerCycle() <= 0 {
		t.Error("inter-GPU bandwidth conversion broken")
	}
	// NumGPUs must divide NumChiplets.
	bad := Default(6)
	bad.NumGPUs = 4
	if err := bad.Validate(); err == nil {
		t.Error("indivisible GPU grouping accepted")
	}
	bad2 := Default(8)
	bad2.NumGPUs = 2
	bad2.InterGPUBWGBs = 0
	if err := bad2.Validate(); err == nil {
		t.Error("MGPU without inter-GPU bandwidth accepted")
	}
	// Single-GPU configs ignore the grouping helpers gracefully.
	d := Default(4)
	if d.GPUOf(3) != 0 || d.ChipletsPerGPU() != 4 {
		t.Error("single-GPU helpers wrong")
	}
}

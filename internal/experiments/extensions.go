package experiments

import (
	"repro"
	"repro/internal/farm"
)

// Extension studies for the alternatives Section VI discusses qualitatively:
// driver-managed synchronization, page placement policies, automated
// annotations, WG scheduling, and kernel fusion.

// DriverManaged quantifies moving CPElide's decision logic to the GPU
// driver: identical elision, plus a host round trip per kernel launch (the
// paper: "prior work has shown this adds significant latency, hurting
// performance ... Conversely, CPElide is tightly integrated with the GPU at
// the global CP").
func DriverManaged(p Params) (*Result, error) {
	return study{
		title: "Extension: driver-managed synchronization (speedup vs CP-resident CPElide)",
		variants: []variant{
			at4("cp", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("drv", cpelide.Options{Protocol: cpelide.ProtocolCPElide, DriverManaged: true}),
		},
		columns: []column{speedup("driver", "drv", "cp")},
		summary: []string{"driver"},
	}.run(p)
}

// PagePlacement compares the paper's first-touch policy against interleaved
// and single-chiplet placement under CPElide (the paper: "sometimes first
// touch is ineffective and different placement policies can skew
// performance").
func PagePlacement(p Params) (*Result, error) {
	return study{
		title: "Extension: page placement policies (speedup vs first touch, CPElide)",
		variants: []variant{
			at4("ft", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("il", cpelide.Options{Protocol: cpelide.ProtocolCPElide, Placement: cpelide.PlacementInterleaved}),
			at4("sg", cpelide.Options{Protocol: cpelide.ProtocolCPElide, Placement: cpelide.PlacementSingle}),
		},
		columns: []column{speedup("interleaved", "il", "ft"), speedup("single", "sg", "ft")},
		summary: []string{"interleaved", "single"},
	}.run(p)
}

// InferredAnnotations compares profile-derived (record-and-replay) range
// annotations against the static hipSetAccessModeRange metadata. Inferred
// ranges are exact, so irregular workloads whose static annotations must
// conservatively declare whole structures can synchronize less.
func InferredAnnotations(p Params) (*Result, error) {
	return study{
		title: "Extension: profile-inferred annotations (speedup vs static ranges, CPElide)",
		variants: []variant{
			at4("static", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("inf", cpelide.Options{Protocol: cpelide.ProtocolCPElide, InferAnnotations: true}),
		},
		columns: []column{speedup("inferred", "inf", "static")},
		summary: []string{"inferred"},
	}.run(p)
}

// Scheduling compares the round-robin WG-to-CU assignment against chunked
// (LADM-style locality-centric) assignment under CPElide.
func Scheduling(p Params) (*Result, error) {
	return study{
		title: "Extension: chunked WG-to-CU scheduling (speedup vs round-robin, CPElide)",
		variants: []variant{
			at4("rr", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("ch", cpelide.Options{Protocol: cpelide.ProtocolCPElide, Scheduler: cpelide.ChunkedCU}),
		},
		columns: []column{speedup("chunked", "ch", "rr")},
		summary: []string{"chunked"},
	}.run(p)
}

// KernelFusion compares software kernel fusion on the baseline protocol
// against CPElide without fusion (Section VI: fusion avoids some boundary
// synchronization but is limited by pressure and safety, "and the
// application still requires implicit synchronization").
func KernelFusion(p Params) (*Result, error) {
	fused := at4("fused", cpelide.Options{Protocol: cpelide.ProtocolBaseline})
	fused.fusion = &farm.FusionSpec{} // the fusion pass's default limits
	return study{
		title: "Extension: kernel fusion vs CPElide (speedups over unfused Baseline)",
		variants: []variant{
			at4("base", cpelide.Options{Protocol: cpelide.ProtocolBaseline}),
			at4("elide", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			fused,
		},
		columns: []column{
			speedup("Base+fusion", "fused", "base"),
			speedup("CPElide", "elide", "base"),
			{"fused-kernels", func(r reports) float64 { return float64(r["base"].Kernels - r["fused"].Kernels) }},
		},
		summary: []string{"Base+fusion", "CPElide"},
	}.run(p)
}

// RemoteBankComparison evaluates the paper's design alternative (a) — a
// NUCA-style shared L2 whose remote banks serve every remote access — next
// to CPElide, both as speedups over the baseline (alternative (b)). It
// shows the design space the paper positions CPElide inside: (a) gives up
// locality to avoid synchronization, (b) gives up reuse to stay simple,
// CPElide keeps both.
func RemoteBankComparison(p Params) (*Result, error) {
	return study{
		title: "Extension: NUCA remote-bank L2 (alternative (a)) vs CPElide, speedups over Baseline",
		variants: []variant{
			at4("base", cpelide.Options{Protocol: cpelide.ProtocolBaseline}),
			at4("rb", cpelide.Options{Protocol: cpelide.ProtocolRemoteBank}),
			at4("elide", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
		},
		columns: []column{speedup("RemoteBank", "rb", "base"), speedup("CPElide", "elide", "base")},
		summary: []string{"RemoteBank", "CPElide"},
	}.run(p)
}

// MGPU evaluates the Section VI claim that CPElide also helps multi-GPU
// systems built from MCM-GPUs: an 8-chiplet system as one package versus
// two 4-chiplet GPUs joined by the inter-GPU interconnect. Speedups are
// each protocol's gain over the baseline on the same topology.
func MGPU(p Params) (*Result, error) {
	single := cpelide.DefaultConfig(8)
	dual := cpelide.MGPUConfig(2, 4)
	return study{
		title: "Extension: MGPU (2 GPUs x 4 chiplets) vs single 8-chiplet MCM-GPU",
		variants: []variant{
			{key: "b1", cfg: single, opt: cpelide.Options{Protocol: cpelide.ProtocolBaseline}},
			{key: "e1", cfg: single, opt: cpelide.Options{Protocol: cpelide.ProtocolCPElide}},
			{key: "b2", cfg: dual, opt: cpelide.Options{Protocol: cpelide.ProtocolBaseline}},
			{key: "e2", cfg: dual, opt: cpelide.Options{Protocol: cpelide.ProtocolCPElide}},
			{key: "h2", cfg: dual, opt: cpelide.Options{Protocol: cpelide.ProtocolHMG}},
		},
		columns: []column{
			speedup("1gpu-CPElide", "e1", "b1"),
			speedup("2gpu-CPElide", "e2", "b2"),
			speedup("2gpu-HMG", "h2", "b2"),
		},
		summary: []string{"1gpu-CPElide", "2gpu-CPElide", "2gpu-HMG"},
	}.run(p)
}

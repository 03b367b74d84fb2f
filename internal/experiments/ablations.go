package experiments

import (
	"fmt"

	"repro"
	"repro/internal/stats"
)

// HMGWriteBack reproduces the Section IV-C ablation: HMG's write-back L2
// variant versus its write-through configuration (the paper measured the
// write-back variant 13% worse geomean, which is why the evaluation uses
// write-through).
func HMGWriteBack(p Params) (*Result, error) {
	return study{
		title: "Ablation: HMG write-back L2 variant (speedup vs write-through HMG)",
		variants: []variant{
			at4("wt", cpelide.Options{Protocol: cpelide.ProtocolHMG}),
			at4("wb", cpelide.Options{Protocol: cpelide.ProtocolHMGWriteBack}),
		},
		columns: []column{speedup("WB-vs-WT", "wb", "wt")},
		summary: []string{"WB-vs-WT"},
	}.run(p)
}

// RangeOps measures the Section VI fine-grained hardware range-flush
// extension: operations target only the tracked address ranges instead of
// whole L2s.
func RangeOps(p Params) (*Result, error) {
	return study{
		title: "Ablation: fine-grained range-based flush/invalidate (speedup vs default CPElide)",
		variants: []variant{
			at4("def", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("rng", cpelide.Options{Protocol: cpelide.ProtocolCPElide, CPElideRangeOps: true}),
		},
		columns: []column{speedup("range-ops", "rng", "def")},
		summary: []string{"range-ops"},
	}.run(p)
}

// AnnotationGranularity measures hipSetAccessMode-only annotations (modes
// without address ranges) against the full hipSetAccessModeRange metadata.
func AnnotationGranularity(p Params) (*Result, error) {
	return study{
		title: "Ablation: hipSetAccessMode only (no ranges) vs hipSetAccessModeRange (speedup)",
		variants: []variant{
			at4("full", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("mode", cpelide.Options{Protocol: cpelide.ProtocolCPElide, NoRangeInfo: true}),
		},
		columns: []column{speedup("mode-only", "mode", "full")},
		summary: []string{"mode-only"},
	}.run(p)
}

// TableSize sweeps the Chiplet Coherence Table capacity. The paper sizes it
// at 64 entries (8 data structures x 8 kernels) and reports its workloads
// peak at 11 entries without overflowing.
func TableSize(p Params, entries ...int) (*Result, error) {
	if len(entries) == 0 {
		entries = []int{4, 8, 16, 64}
	}
	s := study{
		title:    "Ablation: Chiplet Coherence Table capacity (speedup vs 64 entries)",
		variants: []variant{at4("ref", cpelide.Options{Protocol: cpelide.ProtocolCPElide})},
	}
	for _, e := range entries {
		name := fmt.Sprintf("entries=%d", e)
		s.variants = append(s.variants, at4(name, cpelide.Options{Protocol: cpelide.ProtocolCPElide, CPElideTableEntries: e}))
		s.columns = append(s.columns, speedup(name, name, "ref"))
		s.summary = append(s.summary, name)
	}
	s.columns = append(s.columns, counter("peak-use", "ref", stats.TablePeakUse))
	return s.run(p)
}

// DirGranularity compares HMG's 4-lines-per-directory-entry configuration
// against 1 line per entry (precision vs reach), the design choice the
// paper blames for HMG's extra invalidations.
func DirGranularity(p Params) (*Result, error) {
	return study{
		title: "Ablation: HMG directory granularity, 1 line/entry vs 4 (speedup)",
		variants: []variant{
			at4("four", cpelide.Options{Protocol: cpelide.ProtocolHMG}),
			at4("one", cpelide.Options{Protocol: cpelide.ProtocolHMG, HMGDirLinesPerEntry: 1}),
		},
		columns: []column{
			speedup("1-line-entries", "one", "four"),
			counter("dir-evictions-4", "four", stats.DirEvictions),
			counter("dir-evictions-1", "one", stats.DirEvictions),
		},
		summary: []string{"1-line-entries"},
	}.run(p)
}

// Command crosscheck runs the differential correctness campaign: seeded
// random kernel DAGs (internal/gen) executed under Baseline, CPElide,
// CPElide with range operations, HMG and HMG-WB, each run checked three
// ways —
//
//  1. the golden-model consistency oracle (internal/oracle) must find no
//     memory-model violation given the sync operations the CP issued,
//  2. the final memory image must be byte-identical across all variants,
//  3. each CPElide variant's per-boundary sync operations must be a subset
//     of Baseline's.
//
// Mutation mode (-mutate drop-acquire|drop-release|wrong-chiplet|all)
// deliberately weakens the CP under CPElide and asserts the oracle catches
// every weakening that provably corrupted the run (zero false negatives),
// proving the oracle has teeth.
//
// The -json report (schema crosscheck/v1) carries the campaign size,
// divergence counts and oracle verdicts; CI uploads it as the
// BENCH_crosscheck artifact. Exit status is nonzero on any failure.
//
// Usage:
//
//	crosscheck -n 500 -mutate all -mutate-n 100 -json BENCH_crosscheck.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	cpelide "repro"
	"repro/internal/gen"
)

// variants are the runs of every DAG; Baseline comes first, as the
// reference image and op sets the others are held to.
var variants = []struct {
	name string
	opt  cpelide.Options
}{
	{"Baseline", cpelide.Options{Protocol: cpelide.ProtocolBaseline}},
	{"CPElide", cpelide.Options{Protocol: cpelide.ProtocolCPElide}},
	{"CPElide+RangeOps", cpelide.Options{Protocol: cpelide.ProtocolCPElide, CPElideRangeOps: true}},
	{"HMG", cpelide.Options{Protocol: cpelide.ProtocolHMG}},
	{"HMG-WB", cpelide.Options{Protocol: cpelide.ProtocolHMGWriteBack}},
}

type protocolStats struct {
	Runs             uint64 `json:"runs"`
	OracleViolations uint64 `json:"oracle_violations"`
	StaleReads       uint64 `json:"stale_reads"`
	SyncOps          uint64 `json:"sync_ops"`
}

type campaignReport struct {
	DAGs             int                       `json:"dags"`
	Protocols        []string                  `json:"protocols"`
	Edges            gen.EdgeStats             `json:"edges"`
	ImageDivergences int                       `json:"image_divergences"`
	SubsetViolations int                       `json:"subset_violations"`
	ByProtocol       map[string]*protocolStats `json:"by_protocol"`
	// ElisionRatio is CPElide's sync ops over Baseline's across the
	// campaign (lower = more elision; must be <= 1 by the subset property).
	ElisionRatio float64  `json:"elision_ratio"`
	Failures     []string `json:"failures,omitempty"`
}

type mutationReport struct {
	Kind string `json:"kind"`
	DAGs int    `json:"dags"`
	// Detected counts DAGs where the oracle flagged the weakened run;
	// Broken counts DAGs the mutation provably corrupted (stale reads or a
	// memory-image divergence against the unmutated run). FalseNegatives
	// counts broken-but-undetected DAGs and must be zero.
	Detected       int      `json:"detected"`
	Broken         int      `json:"broken"`
	FalseNegatives int      `json:"false_negatives"`
	Failures       []string `json:"failures,omitempty"`
}

type report struct {
	Schema    string            `json:"schema"`
	Chiplets  int               `json:"chiplets"`
	Seed      uint64            `json:"seed"`
	Campaign  *campaignReport   `json:"campaign,omitempty"`
	Mutations []*mutationReport `json:"mutations,omitempty"`
	OK        bool              `json:"ok"`
}

func main() {
	var (
		n        = flag.Int("n", 500, "unmutated campaign size (DAGs); 0 skips it")
		seed     = flag.Uint64("seed", 0, "first DAG seed")
		chiplets = flag.Int("chiplets", 4, "chiplets in the simulated GPU")
		mutate   = flag.String("mutate", "", "mutation campaign: drop-acquire, drop-release, wrong-chiplet or all")
		mutateN  = flag.Int("mutate-n", 100, "mutation campaign size (DAGs per kind)")
		jsonPath = flag.String("json", "", "write the crosscheck/v1 report to this file")
		verbose  = flag.Bool("v", false, "log each DAG")
	)
	flag.Parse()

	rep := &report{Schema: "crosscheck/v1", Chiplets: *chiplets, Seed: *seed, OK: true}
	if *n > 0 {
		rep.Campaign = runCampaign(*n, *seed, *chiplets, *verbose)
		if len(rep.Campaign.Failures) > 0 {
			rep.OK = false
		}
	}
	var kinds []cpelide.Mutation
	switch *mutate {
	case "":
	case "all":
		kinds = []cpelide.Mutation{
			cpelide.MutateDropAcquire, cpelide.MutateDropRelease, cpelide.MutateWrongChiplet,
		}
	default:
		m, err := cpelide.ParseMutation(*mutate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		kinds = []cpelide.Mutation{m}
	}
	for _, m := range kinds {
		mr := runMutation(m, *mutateN, *seed, *chiplets, *verbose)
		rep.Mutations = append(rep.Mutations, mr)
		if mr.FalseNegatives > 0 || mr.Detected == 0 || len(mr.Failures) > 0 {
			rep.OK = false
		}
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	summarize(rep)
	if !rep.OK {
		os.Exit(1)
	}
}

func runCampaign(n int, seed uint64, chiplets int, verbose bool) *campaignReport {
	cr := &campaignReport{
		DAGs:       n,
		ByProtocol: map[string]*protocolStats{},
	}
	for _, v := range variants {
		cr.Protocols = append(cr.Protocols, v.name)
		cr.ByProtocol[v.name] = &protocolStats{}
	}
	fail := func(format string, args ...any) {
		cr.Failures = append(cr.Failures, fmt.Sprintf(format, args...))
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		c := gen.Generate(s, gen.Config{Chiplets: chiplets})
		cr.Edges.RAW += c.Edges.RAW
		cr.Edges.WAR += c.Edges.WAR
		cr.Edges.WAW += c.Edges.WAW
		var baseHash uint64
		var baseOracle *cpelide.Oracle
		for _, v := range variants {
			o := cpelide.NewOracle(v.opt.Protocol)
			opt := v.opt
			opt.Placement, opt.Oracle = c.Placement, o
			r, err := cpelide.RunStreams(cpelide.DefaultConfig(chiplets), c.Specs, opt)
			if err != nil {
				fail("%s / %s: %v", c.Name, v.name, err)
				continue
			}
			ps := cr.ByProtocol[v.name]
			ps.Runs++
			ps.StaleReads += r.StaleReads
			ps.SyncOps += uint64(r.Oracle.SyncOps)
			ps.OracleViolations += o.Violations()
			if err := o.Err(); err != nil {
				fail("%s / %s: %v", c.Name, v.name, err)
			}
			if r.StaleReads > 0 {
				fail("%s / %s: %d stale reads", c.Name, v.name, r.StaleReads)
			}
			if v.opt.Protocol == cpelide.ProtocolBaseline {
				baseHash, baseOracle = r.ImageHash, o
				continue
			}
			if r.ImageHash != baseHash {
				cr.ImageDivergences++
				fail("%s: %s memory image %#x diverges from Baseline %#x",
					c.Name, v.name, r.ImageHash, baseHash)
			}
			if v.opt.Protocol != cpelide.ProtocolCPElide || baseOracle == nil {
				continue
			}
			if broken := o.SubsetOf(baseOracle); len(broken) > 0 {
				cr.SubsetViolations += len(broken)
				fail("%s: %s issued %d boundary op set(s) exceeding Baseline's", c.Name, v.name, len(broken))
			}
		}
		if verbose {
			fmt.Printf("dag %d: %d edges ok\n", s, c.Edges.Total())
		}
	}
	if b := cr.ByProtocol["Baseline"]; b.SyncOps > 0 {
		e := cr.ByProtocol["CPElide"]
		cr.ElisionRatio = float64(e.SyncOps) / float64(b.SyncOps)
	}
	return cr
}

func runMutation(m cpelide.Mutation, n int, seed uint64, chiplets int, verbose bool) *mutationReport {
	mr := &mutationReport{Kind: m.String(), DAGs: n}
	fail := func(format string, args ...any) {
		mr.Failures = append(mr.Failures, fmt.Sprintf(format, args...))
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		c := gen.Generate(s, gen.Config{Chiplets: chiplets})
		clean, err := cpelide.RunStreams(cpelide.DefaultConfig(chiplets), c.Specs, cpelide.Options{
			Protocol:  cpelide.ProtocolCPElide,
			Placement: c.Placement,
		})
		if err != nil {
			fail("%s (clean): %v", c.Name, err)
			continue
		}
		o := cpelide.NewOracle(cpelide.ProtocolCPElide)
		mutated, err := cpelide.RunStreams(cpelide.DefaultConfig(chiplets), c.Specs, cpelide.Options{
			Protocol:  cpelide.ProtocolCPElide,
			Placement: c.Placement,
			Oracle:    o,
			Mutate:    m,
		})
		if err != nil {
			fail("%s (%s): %v", c.Name, m, err)
			continue
		}
		broken := mutated.StaleReads > 0 || mutated.ImageHash != clean.ImageHash
		detected := o.Violations() > 0
		if broken {
			mr.Broken++
			if !detected {
				mr.FalseNegatives++
				fail("%s: %s broke the run (stale=%d, image %#x vs %#x) undetected",
					c.Name, m, mutated.StaleReads, mutated.ImageHash, clean.ImageHash)
			}
		}
		if detected {
			mr.Detected++
		}
		if verbose {
			fmt.Printf("dag %d / %s: broken=%v detected=%v\n", s, m, broken, detected)
		}
	}
	if mr.Detected == 0 {
		fail("mutation %s: never detected across %d DAGs", m, n)
	}
	return mr
}

func summarize(rep *report) {
	if c := rep.Campaign; c != nil {
		fmt.Printf("campaign: %d DAGs x %d protocols, %d hazard edges, %d image divergences, %d subset violations, elision ratio %.3f\n",
			c.DAGs, len(c.Protocols), c.Edges.Total(), c.ImageDivergences, c.SubsetViolations, c.ElisionRatio)
		for _, p := range c.Protocols {
			ps := c.ByProtocol[p]
			fmt.Printf("  %-16s runs=%d oracle_violations=%d stale_reads=%d sync_ops=%d\n",
				p, ps.Runs, ps.OracleViolations, ps.StaleReads, ps.SyncOps)
		}
	}
	for _, m := range rep.Mutations {
		fmt.Printf("mutation %-13s %d DAGs: detected=%d broken=%d false_negatives=%d\n",
			m.Kind, m.DAGs, m.Detected, m.Broken, m.FalseNegatives)
	}
	if rep.OK {
		fmt.Println("crosscheck: OK")
	} else {
		fmt.Println("crosscheck: FAILED")
	}
}

package cpelide

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/report_digests.json from the current simulator")

const reportDigestsPath = "testdata/report_digests.json"

// The calendar lock: the event engine must deliver events in exactly the
// (time, schedule-order) sequence the reference binary-heap calendar did,
// because same-cycle ties across streams decide simulation outcomes. The
// digests in testdata/report_digests.json were recorded while the heap was
// still in the tree and produced these exact reports, so any reordering or other behaviour change that alters one of these
// reports shows up here as a digest mismatch (the engine's own tests pin
// the tie-break rule itself). A deliberate behaviour change reruns
// `go test -run TestCalendarEquivalence -update .` and says so in the
// changelog.

// reportDigest returns the hex SHA-256 of rep's JSON encoding.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares got (case name → digest) against the committed file,
// or merges got into it under -update.
func checkDigests(t *testing.T, got map[string]string) {
	t.Helper()
	want := map[string]string{}
	raw, err := os.ReadFile(reportDigestsPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", reportDigestsPath, err)
		}
	case !*updateDigests:
		t.Fatalf("read digests (run with -update to generate): %v", err)
	}
	if *updateDigests {
		for name, d := range got {
			want[name] = d
		}
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(reportDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportDigestsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), reportDigestsPath)
		return
	}
	for name, d := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest (run with -update)", name)
		case d != w:
			t.Errorf("%s: report digest drifted\n got  %s\n want %s", name, d, w)
		}
	}
}

// TestCalendarEquivalenceWorkloads locks every workload x protocol cell's
// JSON report to its committed digest.
func TestCalendarEquivalenceWorkloads(t *testing.T) {
	got := map[string]string{}
	for _, name := range []string{"square", "babelstream"} {
		for _, p := range []Protocol{ProtocolBaseline, ProtocolCPElide, ProtocolHMG} {
			key := fmt.Sprintf("%s/%v", name, p)
			t.Run(key, func(t *testing.T) {
				cfg := DefaultConfig(4)
				w, err := workloads.Build(name, NewAllocator(cfg.PageSize), workloads.Params{Scale: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(cfg, w, Options{Protocol: p, PerKernelStats: true})
				if err != nil {
					t.Fatal(err)
				}
				got[key] = reportDigest(t, rep)
			})
		}
	}
	checkDigests(t, got)
}

// TestCalendarEquivalenceGeneratedDAGs extends the lock to randomized
// multi-stream kernel DAGs, which exercise concurrent streams — the case
// where event ordering (same-cycle FIFO ties across streams) actually
// decides the simulation outcome.
func TestCalendarEquivalenceGeneratedDAGs(t *testing.T) {
	got := map[string]string{}
	for _, seed := range []uint64{3, 71, 424242} {
		c := gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 3})
		for _, p := range []Protocol{ProtocolBaseline, ProtocolCPElide, ProtocolHMG} {
			key := fmt.Sprintf("%s/%v", c.Name, p)
			t.Run(key, func(t *testing.T) {
				rep, err := RunStreams(DefaultConfig(4), c.Specs, Options{Protocol: p, Placement: c.Placement, PerKernelStats: true})
				if err != nil {
					t.Fatal(err)
				}
				got[key] = reportDigest(t, rep)
			})
		}
	}
	checkDigests(t, got)
}

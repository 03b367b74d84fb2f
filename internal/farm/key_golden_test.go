package farm

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/key_vectors.json from the current hash function")

const keyVectorsPath = "testdata/key_vectors.json"

// keyVector is one committed content-hash fixture: the job spelled as JSON
// plus the key the hash function produced when the vector was recorded.
type keyVector struct {
	Name string          `json:"name"`
	Job  json.RawMessage `json:"job"`
	Key  string          `json:"key"`
}

// goldenJobs spans every class of key-relevant field: protocols, protocol
// knobs, multi-stream bindings, fusion, and machine shape.
// Adding a case here (then running `go test ./internal/farm -run Golden
// -update`) extends the committed vector set.
func goldenJobs() []struct {
	Name string
	Job  Job
} {
	return []struct {
		Name string
		Job  Job
	}{
		{"base-cpelide", baseJob()},
		{"baseline-8c", Job{
			Workload: "pathfinder",
			Params:   workloads.Params{Scale: 1},
			Config:   cpelide.DefaultConfig(8),
			Options:  cpelide.Options{Protocol: cpelide.ProtocolBaseline},
		}},
		{"hmg-fine-dir", Job{
			Workload: "btree",
			Params:   workloads.Params{Scale: 0.25},
			Config:   cpelide.DefaultConfig(4),
			Options: cpelide.Options{
				Protocol:            cpelide.ProtocolHMG,
				HMGDirLinesPerEntry: 1,
				HMGDirEntries:       512,
			},
		}},
		{"multi-stream", Job{
			Streams: []StreamJob{
				{Workload: "square", Chiplets: []int{0, 1}},
				{Workload: "btree", Chiplets: []int{2, 3}, Rename: "btree-b"},
			},
			Params:  workloads.Params{Scale: 0.5},
			Config:  cpelide.DefaultConfig(4),
			Options: cpelide.Options{Protocol: cpelide.ProtocolCPElide},
		}},
		{"fused", Job{
			Workload: "square",
			Params:   workloads.Params{Scale: 0.5},
			Config:   cpelide.DefaultConfig(4),
			Options:  cpelide.Options{Protocol: cpelide.ProtocolCPElide},
			Fusion:   &FusionSpec{MaxArgs: 2},
		}},
		{"sweep-point", Job{
			Workload: "pathfinder",
			Params:   workloads.Params{Scale: 0.25, Iters: 3},
			Config:   cpelide.DefaultConfig(4),
			Options: cpelide.Options{
				Protocol:        cpelide.ProtocolCPElide,
				DriverManaged:   true,
				Placement:       cpelide.PlacementInterleaved,
				Scheduler:       cpelide.ChunkedCU,
				SyncLatencySets: 2,
			},
		}},
	}
}

// TestGoldenKeyVectors pins Job.Key to the committed vectors. A mismatch
// means the content-hash changed: every persisted diskstore entry and every
// cross-node routing decision keyed on the old hash is invalidated. That is
// sometimes intentional (canonicalization change) — then bump
// keyPayload.Version, rerun with -update, and say so in the changelog — but
// it must never happen by accident.
func TestGoldenKeyVectors(t *testing.T) {
	jobs := goldenJobs()

	if *updateGolden {
		vecs := make([]keyVector, 0, len(jobs))
		for _, g := range jobs {
			blob, err := json.Marshal(g.Job)
			if err != nil {
				t.Fatalf("%s: marshal job: %v", g.Name, err)
			}
			vecs = append(vecs, keyVector{Name: g.Name, Job: blob, Key: mustKey(t, g.Job)})
		}
		out, err := json.MarshalIndent(vecs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(keyVectorsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keyVectorsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d vectors", keyVectorsPath, len(vecs))
	}

	raw, err := os.ReadFile(keyVectorsPath)
	if err != nil {
		t.Fatalf("read vectors (run with -update to generate): %v", err)
	}
	var vecs []keyVector
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]keyVector, len(vecs))
	for _, v := range vecs {
		byName[v.Name] = v
	}

	for _, g := range jobs {
		v, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no committed vector (run with -update)", g.Name)
			continue
		}
		// The code-constructed job must still hash to the recorded key.
		if got := mustKey(t, g.Job); got != v.Key {
			t.Errorf("%s: key drifted\n got  %s\n want %s", g.Name, got, v.Key)
		}
		// The JSON spelling stored in the file must round-trip to the same
		// key, proving decode → Key is as stable as the in-memory path.
		var decoded Job
		if err := json.Unmarshal(v.Job, &decoded); err != nil {
			t.Errorf("%s: decode stored job: %v", g.Name, err)
			continue
		}
		if got := mustKey(t, decoded); got != v.Key {
			t.Errorf("%s: stored-JSON job hashes to %s, vector says %s", g.Name, got, v.Key)
		}
	}
	if len(vecs) != len(jobs) {
		t.Errorf("vector file has %d entries, goldenJobs has %d (stale file? rerun -update)", len(vecs), len(jobs))
	}
}

// TestKeyStableUnderJSONSpelling decodes the same job from JSON documents
// that reorder fields, omit defaults, and vary member case, and demands one
// key. Clients (loadgen, curl users) serialize jobs however
// their encoder pleases; content addressing must not care.
func TestKeyStableUnderJSONSpelling(t *testing.T) {
	ref := mustKey(t, baseJob())

	base, err := json.Marshal(baseJob())
	if err != nil {
		t.Fatal(err)
	}
	spellings := map[string]string{
		"canonical": string(base),
		"reordered": `{
			"Options": {"Protocol": 1},
			"Config": ` + mustMarshal(t, cpelide.DefaultConfig(4)) + `,
			"Params": {"Iters": 0, "Scale": 0.5},
			"Workload": "square"
		}`,
		"defaults-omitted": `{
			"Workload": "square",
			"Params": {"Scale": 0.5},
			"Config": ` + mustMarshal(t, cpelide.DefaultConfig(4)) + `,
			"Options": {"Protocol": 1}
		}`,
		"lowercase-members": `{
			"workload": "square",
			"params": {"scale": 0.5},
			"config": ` + mustMarshal(t, cpelide.DefaultConfig(4)) + `,
			"options": {"protocol": 1}
		}`,
	}
	for name, doc := range spellings {
		var j Job
		if err := json.Unmarshal([]byte(doc), &j); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got := mustKey(t, j); got != ref {
			t.Errorf("%s: key %s differs from canonical %s", name, got, ref)
		}
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

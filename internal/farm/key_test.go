package farm

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func baseJob() Job {
	return Job{
		Workload: "square",
		Params:   workloads.Params{Scale: 0.5},
		Config:   cpelide.DefaultConfig(4),
		Options:  cpelide.Options{Protocol: cpelide.ProtocolCPElide},
	}
}

func mustKey(t *testing.T, j Job) string {
	t.Helper()
	k, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyDeterministic(t *testing.T) {
	a, b := mustKey(t, baseJob()), mustKey(t, baseJob())
	if a != b {
		t.Fatalf("identical jobs hashed differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

// TestKeyDiscriminates flips every class of report-relevant field and
// demands a fresh key each time.
func TestKeyDiscriminates(t *testing.T) {
	ref := mustKey(t, baseJob())
	muts := map[string]func(*Job){
		"workload":      func(j *Job) { j.Workload = "btree" },
		"protocol":      func(j *Job) { j.Options.Protocol = cpelide.ProtocolHMG },
		"table-entries": func(j *Job) { j.Options.CPElideTableEntries = 8 },
		"range-ops":     func(j *Job) { j.Options.CPElideRangeOps = true },
		"no-range-info": func(j *Job) { j.Options.NoRangeInfo = true },
		"driver":        func(j *Job) { j.Options.DriverManaged = true },
		"placement":     func(j *Job) { j.Options.Placement = cpelide.PlacementInterleaved },
		"scheduler":     func(j *Job) { j.Options.Scheduler = cpelide.ChunkedCU },
		"infer":         func(j *Job) { j.Options.InferAnnotations = true },
		"sync-sets":     func(j *Job) { j.Options.SyncLatencySets = 2 },
		"per-kernel":    func(j *Job) { j.Options.PerKernelStats = true },
		"scale":         func(j *Job) { j.Params.Scale = 0.25 },
		"iters":         func(j *Job) { j.Params.Iters = 3 },
		"chiplets":      func(j *Job) { j.Config = cpelide.DefaultConfig(8) },
		"l2-size":       func(j *Job) { j.Config.L2SizeBytes *= 2 },
		"fusion":        func(j *Job) { j.Fusion = &FusionSpec{} },
		"fusion-limits": func(j *Job) { j.Fusion = &FusionSpec{MaxArgs: 2} },
		"streams": func(j *Job) {
			j.Workload = ""
			j.Streams = []StreamJob{{Workload: "square", Chiplets: []int{0, 1}}}
		},
	}
	seen := map[string]string{"": ref}
	for name, mut := range muts {
		j := baseJob()
		mut(&j)
		k := mustKey(t, j)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q (key %s)", name, prev, k)
		}
		seen[k] = name
	}
}

// TestKeyNormalizes checks that equivalent spellings of the same simulation
// collapse to one key.
func TestKeyNormalizes(t *testing.T) {
	t.Run("scale zero is scale one", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		a.Params.Scale = 0
		b.Params.Scale = 1
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("Scale 0 and Scale 1 should alias (both mean unscaled)")
		}
	})
	t.Run("negative iters keep default", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		a.Params.Iters = -5
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("Iters<=0 should alias to the workload default")
		}
	})
	t.Run("baseline ignores protocol knobs", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		a.Options = cpelide.Options{Protocol: cpelide.ProtocolBaseline}
		b.Options = cpelide.Options{
			Protocol:            cpelide.ProtocolBaseline,
			CPElideTableEntries: 16,
			CPElideRangeOps:     true,
			HMGDirLinesPerEntry: 1,
			HMGDirEntries:       512,
		}
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("Baseline never reads CPElide/HMG knobs; keys must match")
		}
	})
	t.Run("cpelide ignores hmg knobs", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		b.Options.HMGDirLinesPerEntry = 1
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("CPElide never reads HMG knobs; keys must match")
		}
	})
	t.Run("trace is observational", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		b.Options.Trace = trace.New(0)
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("Options.Trace must not enter the key")
		}
	})
	t.Run("workload is one-stream shorthand", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		b.Workload = ""
		b.Streams = []StreamJob{{Workload: a.Workload}}
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("single Workload and its one-stream spelling must alias")
		}
	})
	t.Run("deprecated faults ignored", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		b.Options.Faults = &cpelide.FaultConfig{}
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("Options.Faults configures nothing; keys must match")
		}
	})
	t.Run("sync sets 0 and 1 alias", func(t *testing.T) {
		a, b := baseJob(), baseJob()
		a.Options.SyncLatencySets = 0
		b.Options.SyncLatencySets = 1
		if mustKey(t, a) != mustKey(t, b) {
			t.Fatal("SyncLatencySets 0 and 1 both mean one serialized set")
		}
	})
}

func TestKeyErrors(t *testing.T) {
	for name, j := range map[string]Job{
		"both forms": {Workload: "square", Streams: []StreamJob{{Workload: "btree"}}},
		"no work":    {},
		"fusion with streams": {
			Streams: []StreamJob{{Workload: "square"}},
			Fusion:  &FusionSpec{},
		},
	} {
		if _, err := j.Key(); err == nil {
			t.Errorf("%s: Key() accepted an invalid job", name)
		}
	}
}

// TestOptionsKeyCoversOptions pins optionsKey to cpelide.Options by field
// name: a new Options field must either join optionsKey (and canonOptions)
// or be explicitly listed here as report-irrelevant.
func TestOptionsKeyCoversOptions(t *testing.T) {
	irrelevant := map[string]bool{
		"Trace":    true, // observational only; cached Reports are shared
		"Oracle":   true, // observer pointer, single-use; callers read it directly
		"Profiler": true, // deprecated and ignored
		"Calendar": true, // deprecated and ignored: the engine has one calendar
		"Faults":   true, // deprecated and ignored: optionsKey.Faults is always null
	}
	opt := reflect.TypeOf(cpelide.Options{})
	key := reflect.TypeOf(optionsKey{})
	for i := 0; i < opt.NumField(); i++ {
		name := opt.Field(i).Name
		if irrelevant[name] {
			continue
		}
		if _, ok := key.FieldByName(name); !ok {
			t.Errorf("cpelide.Options.%s is not mirrored in optionsKey: add it to the key or mark it irrelevant", name)
		}
	}
	for i := 0; i < key.NumField(); i++ {
		name := key.Field(i).Name
		if _, ok := opt.FieldByName(name); !ok {
			t.Errorf("optionsKey.%s has no cpelide.Options counterpart (stale field?)", name)
		}
	}
}

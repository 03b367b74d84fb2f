package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro"
	"repro/internal/config"
	"repro/internal/workloads"
)

// StreamJob binds one workload to a chiplet set inside a multi-stream job.
type StreamJob struct {
	// Workload is a registered benchmark name (workloads.Names).
	Workload string `json:"workload"`
	// Chiplets binds the stream; nil binds it to all chiplets.
	Chiplets []int `json:"chiplets,omitempty"`
	// Rename is appended to the built workload's name so two streams of
	// the same benchmark stay distinguishable in reports.
	Rename string `json:"rename,omitempty"`
}

// FusionSpec applies software kernel fusion (kernels.FuseAdjacent) to the
// built workload before the run. Zero limits use the fusion defaults.
type FusionSpec struct {
	MaxArgs     int `json:"max_args,omitempty"`
	MaxLDSBytes int `json:"max_lds_bytes,omitempty"`
}

// Job is one deterministic simulation request: a workload (or multi-stream
// binding), its construction parameters, the machine, and the run options.
// Jobs are content-addressed — Key canonicalizes every field that affects
// the Report, so identical requests hit the cache and equivalent spellings
// (Scale 0 vs 1, single-workload vs one-stream form, protocol-irrelevant
// knobs) collapse to the same key.
type Job struct {
	// Workload is the single-stream shorthand: the benchmark runs as one
	// stream across all chiplets. Mutually exclusive with Streams.
	Workload string
	// Streams is the multi-stream form (Section VI study); all streams
	// allocate from one shared allocator in order, like RunStreams callers.
	Streams []StreamJob
	// Params tunes workload construction (footprint scale, iterations).
	Params workloads.Params
	// Config is the simulated machine.
	Config cpelide.Config
	// Options tunes the run. Options.Trace is ignored: a cached Report is
	// shared across submitters, so per-run tracing through the farm would
	// be lost on hits; the farm records its own job spans instead.
	Options cpelide.Options
	// Fusion, when non-nil, fuses adjacent kernels of the built workload
	// (single-stream jobs only).
	Fusion *FusionSpec
}

// streams returns the canonical stream list of the job.
func (j Job) streams() ([]StreamJob, error) {
	if j.Workload != "" && len(j.Streams) > 0 {
		return nil, errors.New("farm: job sets both Workload and Streams")
	}
	if j.Workload != "" {
		return []StreamJob{{Workload: j.Workload}}, nil
	}
	if len(j.Streams) == 0 {
		return nil, errors.New("farm: job names no workload")
	}
	if j.Fusion != nil {
		return nil, errors.New("farm: Fusion applies to single-stream jobs only")
	}
	return j.Streams, nil
}

// Name returns a short display label for logs and trace spans.
func (j Job) Name() string {
	label := j.Workload
	if label == "" {
		for i, s := range j.Streams {
			if i > 0 {
				label += "+"
			}
			label += s.Workload
		}
	}
	if j.Fusion != nil {
		label += "+fused"
	}
	return fmt.Sprintf("%s/%s/%dc", label, j.Options.Protocol, j.Config.NumChiplets)
}

// keyPayload is the canonical form that gets hashed. Bump Version whenever
// the canonicalization rules change so stale persisted keys cannot alias.
type keyPayload struct {
	Version int
	Streams []StreamJob
	Params  workloads.Params
	Config  config.GPU
	Options optionsKey
	Fusion  *FusionSpec
}

// optionsKey mirrors every cpelide.Options field that can influence a
// Report, spelled out explicitly so a new Options field cannot silently
// join the key with the wrong semantics (TestOptionsKeyCoversOptions
// enforces the mirror stays complete).
type optionsKey struct {
	Protocol            int
	NoRangeInfo         bool
	CPElideRangeOps     bool
	CPElideTableEntries int
	HMGDirLinesPerEntry int
	HMGDirEntries       int
	DriverManaged       bool
	Placement           uint8
	InferAnnotations    bool
	Scheduler           uint8
	SyncLatencySets     int
	PerKernelStats      bool
	Mutate              uint8
	// Faults is always nil and encodes as "Faults":null. Fault injection
	// is retired, but every key hashed so far (the paper digests, the
	// golden key vectors, persisted store entries) contains that null, so
	// the field stays to keep those hashes.
	Faults *struct{}
}

// canonOptions normalizes o into its key form. Protocol-specific knobs that
// the selected protocol never reads are zeroed, so e.g. a table-size sweep
// reuses one cached Baseline run across every point.
func canonOptions(o cpelide.Options) optionsKey {
	k := optionsKey{
		Protocol:         int(o.Protocol),
		NoRangeInfo:      o.NoRangeInfo,
		DriverManaged:    o.DriverManaged,
		Placement:        uint8(o.Placement),
		InferAnnotations: o.InferAnnotations,
		Scheduler:        uint8(o.Scheduler),
		SyncLatencySets:  o.SyncLatencySets,
		PerKernelStats:   o.PerKernelStats,
		Mutate:           uint8(o.Mutate),
	}
	if k.SyncLatencySets <= 1 {
		k.SyncLatencySets = 0 // 0 and 1 both mean "no extra serialized sets"
	}
	if o.Protocol == cpelide.ProtocolCPElide {
		k.CPElideRangeOps = o.CPElideRangeOps
		k.CPElideTableEntries = o.CPElideTableEntries
	}
	if o.Protocol == cpelide.ProtocolHMG || o.Protocol == cpelide.ProtocolHMGWriteBack {
		k.HMGDirLinesPerEntry = o.HMGDirLinesPerEntry
		k.HMGDirEntries = o.HMGDirEntries
	}
	return k
}

// canonParams normalizes the workload parameters: every Scale the builders
// treat as "unscaled" (<= 0 or exactly 1) maps to 1, and non-positive
// iteration overrides map to 0 (keep the workload default).
func canonParams(p workloads.Params) workloads.Params {
	if p.Scale <= 0 || p.Scale == 1 {
		p.Scale = 1
	}
	if p.Iters <= 0 {
		p.Iters = 0
	}
	return p
}

// Key returns the job's canonical content hash: 64 hex characters of
// SHA-256 over the canonical JSON payload. Two jobs with the same key
// produce byte-identical Reports.
func (j Job) Key() (string, error) {
	ss, err := j.streams()
	if err != nil {
		return "", err
	}
	payload := keyPayload{
		Version: 1,
		Streams: ss,
		Params:  canonParams(j.Params),
		Config:  j.Config,
		Options: canonOptions(j.Options),
		Fusion:  j.Fusion,
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("farm: canonicalize job: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro"
	"repro/internal/farm"
)

// The experiment harness fans its (workload x configuration x protocol)
// points out across the shared farm instead of looping serially: every
// figure builds a job matrix, submits it in one batch, and assembles rows
// from the reports. The farm's content-addressed cache means points shared
// between figures (e.g. the 4-chiplet Baseline run appears in Figures 8,
// 9, 10 and Table II) simulate exactly once per process.

var (
	sharedOnce sync.Once
	sharedFarm *farm.Farm
)

// shared returns the process-wide default farm (all CPUs, default cache).
// It is never closed; experiment commands that want their own pool size or
// instrumentation pass a Farm via Params.
func shared() *farm.Farm {
	sharedOnce.Do(func() { sharedFarm = farm.New(farm.Options{}) })
	return sharedFarm
}

// engine returns the farm experiments in p should run on.
func (p Params) engine() *farm.Farm {
	if p.Farm != nil {
		return p.Farm
	}
	return shared()
}

// variant is one configuration column of an experiment matrix.
type variant struct {
	key string
	cfg cpelide.Config
	opt cpelide.Options
	// streams, when non-nil, builds the multi-stream binding for a
	// benchmark (nil runs it as a single stream across all chiplets).
	streams func(name string) []farm.StreamJob
	// fusion, when non-nil, fuses the built workload's adjacent kernels.
	fusion *farm.FusionSpec
}

// runMatrix executes one farm job per (benchmark, variant) pair — all
// concurrently, bounded by the farm's worker pool — and returns the
// reports indexed by workload then variant key. Every report is checked
// for stale reads (functional coherence violations) before it is returned.
func runMatrix(p Params, vars []variant) (map[string]map[string]*cpelide.Report, error) {
	names := p.names()
	jobs := make([]farm.Job, 0, len(names)*len(vars))
	for _, name := range names {
		for _, v := range vars {
			j := farm.Job{Params: p.wp(), Config: v.cfg, Options: v.opt, Fusion: v.fusion}
			if v.streams != nil {
				j.Streams = v.streams(name)
			} else {
				j.Workload = name
			}
			jobs = append(jobs, j)
		}
	}
	reps, err := p.engine().Do(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]*cpelide.Report, len(names))
	i := 0
	for _, name := range names {
		row := make(map[string]*cpelide.Report, len(vars))
		for _, v := range vars {
			rep := reps[i]
			i++
			if rep.StaleReads != 0 {
				return nil, fmt.Errorf("experiments: %s/%s: %d stale reads (coherence violation)",
					name, rep.Protocol, rep.StaleReads)
			}
			row[v.key] = rep
		}
		out[name] = row
	}
	return out, nil
}

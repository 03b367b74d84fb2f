package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// figScale is the footprint scale of the fig-matrix workload: the paper's
// full inputs take minutes per pass; at 0.1 one pass takes seconds and still
// runs every kernel sequence of the 24 benchmarks.
const figScale = 0.1

// figStore sits under a fig-matrix farm as its persistent store. Every
// flight leader calls Get before simulating and Put after, on the same
// worker goroutine, so the store sees each simulation's span and report.
// Untraced, Get always misses and the farm simulates through
// cpelide.RunStreamsContext. Traced, Get runs the job's simulation through
// the traced assembly and returns its report, so the farm resolves the
// flight without calling the library.
type figStore struct {
	tr   *tracer             // nil when untraced
	jobs map[string]farm.Job // traced: the key -> job map of the figure matrix

	mu      sync.Mutex
	started map[string]clocks
	reps    map[string]*cpelide.Report
	lat     map[string]time.Duration // thread CPU time per simulation
	busy    time.Duration            // summed wall time of simulations
	unknown int                      // traced Gets for keys outside the replicated matrix
	errs    []error
}

func newFigStore(tr *tracer, jobs map[string]farm.Job) *figStore {
	return &figStore{tr: tr, jobs: jobs, started: map[string]clocks{},
		reps: map[string]*cpelide.Report{}, lat: map[string]time.Duration{}}
}

// Get pins the worker goroutine to its thread until the matching Put (or
// its own return, when it simulates), so the thread's CPU clock times the
// simulation alone.
func (s *figStore) Get(key string) (*cpelide.Report, bool, error) {
	runtime.LockOSThread()
	start := now()
	j, known := s.jobs[key]
	if s.tr == nil || !known {
		s.mu.Lock()
		s.started[key] = start
		if s.tr != nil {
			s.unknown++
		}
		s.mu.Unlock()
		return nil, false, nil
	}
	rep, err := s.tr.runJob(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("%s: %w", j.Name(), err))
		s.started[key] = now() // the farm falls back to simulating
		return nil, false, nil
	}
	s.done(key, rep, start)
	runtime.UnlockOSThread()
	return rep, true, nil
}

func (s *figStore) Put(key string, rep *cpelide.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done(key, rep, s.started[key])
	runtime.UnlockOSThread()
	return nil
}

func (s *figStore) done(key string, rep *cpelide.Report, start clocks) {
	d := now().since(start)
	s.reps[key] = rep
	s.lat[key] = d.cpu
	s.busy += d.wall
}

// figJobs replicates the job matrix experiments.Figure8(4 chiplets),
// Figure9, Figure10 and TableII submit, keyed the way the farm keys them.
func figJobs() (map[string]farm.Job, error) {
	jobs := map[string]farm.Job{}
	for _, name := range workloads.Names() {
		for _, p := range []cpelide.Protocol{cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG} {
			j := farm.Job{
				Workload: name,
				Params:   workloads.Params{Scale: figScale},
				Config:   cpelide.DefaultConfig(4),
				Options:  cpelide.Options{Protocol: p},
			}
			key, err := j.Key()
			if err != nil {
				return nil, err
			}
			jobs[key] = j
		}
	}
	return jobs, nil
}

// runFigMatrix is the paper-regeneration workload: the 4-chiplet Figure 8,
// Figure 9, Figure 10 and Table II over all 24 benchmarks x {Baseline,
// CPElide, HMG}, on a fresh farm per repetition (264 farm jobs, 72 of them
// simulations, the rest cache hits). Its inputs are the paper's fixed
// matrix; the seed does not change them.
func runFigMatrix(b *bench) error {
	var jobs map[string]farm.Job
	// Set-up is the input build: every benchmark's workload descriptor at
	// the matrix scale, plus the traced run's key -> job map.
	setupS, err := setupTimes(21, func() error {
		for _, name := range workloads.Names() {
			if _, err := workloads.Build(name, cpelide.NewAllocator(cpelide.DefaultConfig(4).PageSize),
				workloads.Params{Scale: figScale}); err != nil {
				return err
			}
		}
		var err error
		jobs, err = figJobs()
		return err
	})
	if err != nil {
		return err
	}

	var rs repStats
	var untracedWall, tracedWall []float64
	var tracedWorkerTime time.Duration
	var tracedSets int
	var hits, farmJobs, farmRuns float64
	var busy []float64
	err = b.repeat(3, func(i int, traced bool) (cost, error) {
		var tr *tracer
		if traced {
			tr = b.tr
		}
		st := newFigStore(tr, jobs)
		f := farm.New(farm.Options{Workers: b.workers, Store: st})
		p := experiments.Params{Scale: figScale, Farm: f}
		u := snapshot()
		speedup := 0.0
		if res, err := experiments.Figure8(p, 4); err != nil {
			b.fail("figure 8: %v", err)
		} else {
			speedup = res[4].Summary["geomean(CPElide)"]
		}
		if _, err := experiments.Figure9(p); err != nil {
			b.fail("figure 9: %v", err)
		}
		if _, err := experiments.Figure10(p); err != nil {
			b.fail("figure 10: %v", err)
		}
		if _, err := experiments.TableII(p); err != nil {
			b.fail("table II: %v", err)
		}
		c := since(u)
		f.Close()

		fc := f.Counters()
		b.attempted += int(fc.Jobs)
		if fc.Errors > 0 {
			b.fail("farm: %d failed jobs", fc.Errors)
		}
		for _, err := range st.errs {
			b.fail("traced simulation %v", err)
		}
		if st.unknown > 0 {
			b.fail("traced run: %d farm jobs outside the replicated matrix ran untraced", st.unknown)
		}
		var accesses, cycles uint64
		within := 0
		for key, rep := range st.reps {
			b.checkReport(key, rep)
			accesses += rep.Accesses
			cycles += rep.Cycles
		}
		for _, d := range st.lat {
			if d <= latencyLimit {
				within++
			}
		}
		b.model["model.cycles_total"] = metric{float64(cycles), "cycles"}
		b.model["model.accesses_total"] = metric{float64(accesses), "count"}
		b.model["model.cpelide_speedup_geomean"] = metric{speedup, "x"}

		if traced {
			tracedWall = append(tracedWall, c.wall.Seconds())
			tracedWorkerTime += time.Duration(b.workers) * c.wall
			tracedSets++
			farmJobs += float64(fc.Jobs)
			hits += float64(fc.CacheHits)
			farmRuns += float64(fc.Runs + fc.StoreHits)
			busy = append(busy, ratio(float64(st.busy), float64(time.Duration(b.workers)*c.wall)))
		} else {
			untracedWall = append(untracedWall, c.wall.Seconds())
			rs.add(c, len(st.reps), accesses, within)
			for _, d := range st.lat {
				rs.addLatency(atRef(d, c.ghz))
			}
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	if len(rs.wall) == 0 {
		return fmt.Errorf("fig-matrix: no untraced repetition fit the window")
	}
	b.setE2E(&rs, setupS)
	if b.traced {
		pr := b.tr.simLayers(b, tracedSets)
		b.tr.account(b, tracedWorkerTime, pr)
		b.setOverhead(untracedWall, tracedWall)
		b.layers["farm.cache_hit_ratio"] = metric{ratio(hits, farmJobs), "ratio"}
		b.layers["farm.runs"] = metric{farmRuns / float64(max(tracedSets, 1)), "count"}
		b.layers["farm.busy_ratio"] = metric{median(busy), "ratio"}
	}
	return nil
}

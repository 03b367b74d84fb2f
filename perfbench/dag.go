package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/kernels"
)

// dagCases is the number of generated DAGs in one dag-campaign job set.
const dagCases = 128

// A DAG joins the job set only if its access count lies in the middle of
// the generator's distribution (about the 35th to 70th percentile of
// gen.Config{}'s). Unfiltered sizes spread from a few thousand to 70k
// accesses, so the cost of a 128-DAG set would differ by tens of percent
// from one --seed to the next; filtered, the seed still picks every DAG's
// streams, bindings, placement and hazard edges, but not the set's size.
const dagMinAccesses, dagMaxAccesses = 12_000, 24_000

// dagSeed derives the i-th candidate DAG seed of a campaign; distinct
// --seed values give disjoint candidates.
func dagSeed(seed int64, i int) uint64 { return uint64(seed)<<20 | uint64(i) }

// dagSet generates the campaign's job set: seeded candidates, filtered by
// the number of accesses the executor will generate for them.
func dagSet(seed int64, cfg cpelide.Config) []*gen.Case {
	var cases []*gen.Case
	for i := 0; len(cases) < dagCases; i++ {
		c := gen.Generate(dagSeed(seed, i), gen.Config{Chiplets: cfg.NumChiplets})
		if n := dagAccesses(c, cfg); n >= dagMinAccesses && n <= dagMaxAccesses {
			cases = append(cases, c)
		}
	}
	return cases
}

// dagAccesses counts a case's line accesses by replaying the executor's
// access generation with a counting sink.
func dagAccesses(c *gen.Case, cfg cpelide.Config) int {
	var seed uint64
	for _, s := range c.Specs {
		seed ^= s.Workload.Seed
	}
	n := 0
	count := func(kernels.Access) { n++ }
	for _, s := range c.Specs {
		parts := len(s.Chiplets)
		if parts == 0 {
			parts = cfg.NumChiplets
		}
		for inst, k := range s.Workload.Sequence {
			for slot := 0; slot < parts; slot++ {
				kernels.GenerateScheduled(k, inst, seed, slot, parts, cfg.CUsPerChiplet, cfg.LineSize, kernels.RoundRobinCU, count)
			}
		}
	}
	return n
}

// dagProtocols starts with Baseline then CPElide: the speed-up pairs them.
var dagProtocols = []cpelide.Protocol{cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG}

// dagRun is one RunStreams call of a repetition.
type dagRun struct {
	rep *cpelide.Report
	err error
	cpu time.Duration // the calling thread's CPU time
}

// runDAGCampaign is the setup-dominated simulator workload: seeded
// multi-stream kernel DAGs (chiplet-bound streams, all three placement
// policies, dense RAW/WAR/WAW edges), each run under Baseline, CPElide and
// HMG by direct cpelide.RunStreams calls that bypass the farm. One
// goroutine per worker takes every workers-th DAG and runs its simulations
// back to back. With a single caller the second CPU sat idle; the garbage
// collector's idle-time marking there added about a tenth to process CPU
// time, and over eight seeds cpu_s spread 9% against 6% with two callers.
func runDAGCampaign(b *bench) error {
	cfg := cpelide.DefaultConfig(4)
	var cases []*gen.Case
	setupS, err := setupTimes(21, func() error {
		cases = dagSet(b.seed, cfg)
		return nil
	})
	if err != nil {
		return err
	}

	var rs repStats
	var untracedWall, tracedWall []float64
	var tracedWorkerTime time.Duration
	var tracedSets int
	err = b.repeat(3, func(i int, traced bool) (cost, error) {
		runs := make([][]dagRun, len(cases))
		var wg sync.WaitGroup
		u := snapshot()
		for lane := 0; lane < b.workers; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				runtime.LockOSThread() // see clocks
				defer runtime.UnlockOSThread()
				for ci := lane; ci < len(cases); ci += b.workers {
					c := cases[ci]
					runs[ci] = make([]dagRun, len(dagProtocols))
					for pi, p := range dagProtocols {
						opt := cpelide.Options{Protocol: p, Placement: c.Placement}
						t0 := now()
						r := &runs[ci][pi]
						if traced {
							r.rep, r.err = b.tr.runStreams(cfg, c.Specs, opt)
						} else {
							r.rep, r.err = cpelide.RunStreams(cfg, c.Specs, opt)
						}
						r.cpu = now().since(t0).cpu
					}
				}
			}(lane)
		}
		wg.Wait()
		c := since(u)

		var accesses, cycles uint64
		var speedups []float64
		within, done := 0, 0
		for ci, cs := range cases {
			for pi, p := range dagProtocols {
				r := runs[ci][pi]
				b.attempted++
				key := fmt.Sprintf("%s/%s", cs.Name, p)
				if r.err != nil {
					b.fail("%s: %v", key, r.err)
					continue
				}
				done++
				if r.cpu <= latencyLimit {
					within++
				}
				b.checkReport(key, r.rep)
				accesses += r.rep.Accesses
				cycles += r.rep.Cycles
				if !traced {
					rs.addLatency(atRef(r.cpu, c.ghz))
				}
			}
			if base, el := runs[ci][0], runs[ci][1]; base.err == nil && el.err == nil {
				speedups = append(speedups, ratio(float64(base.rep.Cycles), float64(el.rep.Cycles)))
			}
		}
		b.model["model.cycles_total"] = metric{float64(cycles), "cycles"}
		b.model["model.accesses_total"] = metric{float64(accesses), "count"}
		b.model["model.cpelide_speedup_geomean"] = metric{geomean(speedups), "x"}
		if traced {
			tracedWall = append(tracedWall, c.wall.Seconds())
			tracedWorkerTime += time.Duration(b.workers) * c.wall
			tracedSets++
		} else {
			untracedWall = append(untracedWall, c.wall.Seconds())
			rs.add(c, done, accesses, within)
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	if len(rs.wall) == 0 {
		return fmt.Errorf("dag-campaign: no untraced repetition fit the window")
	}
	b.setE2E(&rs, setupS)
	if b.traced {
		pr := b.tr.simLayers(b, tracedSets)
		// DAGs are generated once at set-up, not per simulation.
		b.layers["workloads.build_ms"] = metric{setupS * 1e3 / dagCases, "ms"}
		b.tr.account(b, tracedWorkerTime, pr)
		b.setOverhead(untracedWall, tracedWall)
	}
	return nil
}

// Command perfbench is the repository benchmark. It runs one of three
// workloads for a fixed measurement window, checks every simulation report
// it sees, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fig-matrix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation beyond per-repetition clocks. With --trace 1 the run
// alternates untraced and traced repetitions of the same job set and
// reports per-layer metrics: the traced repetitions route every simulation
// through a hand-assembled copy of cpelide.RunStreams (simtrace.go) that
// times the calls into each layer. Spans are kept in memory and written to
// --out when the run ends. README.md maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"fig-matrix", "dag-campaign", "serve"}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run's shared state.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workers  int // farm workers and HTTP connections: min(2, CPUs)

	attempted, failed int

	prints map[string]fingerprint

	e2e    map[string]metric // reported with --trace 0
	wall   map[string]metric // wall-clock and diagnostic figures: printed, never reported
	layers map[string]metric // reported with --trace 1
	model  map[string]metric // printed in both modes, reported with --trace 1

	tr *tracer // nil unless --trace 1
}

func main() {
	workload := flag.String("workload", "", "fig-matrix | dag-campaign | serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps of traced runs")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workers:  min(2, runtime.NumCPU()),
		prints:   map[string]fingerprint{},
		e2e:      map[string]metric{},
		wall:     map[string]metric{},
		layers:   map[string]metric{},
		model:    map[string]metric{},
	}
	runtime.GOMAXPROCS(b.workers)
	if b.traced {
		b.tr = newTracer()
	}
	stop := make(chan struct{})
	var samplers sync.WaitGroup
	samplers.Add(2)
	go func() { defer samplers.Done(); sampleResident(stop) }()
	go func() { defer samplers.Done(); sampleClock(stop) }()
	var err error
	switch b.workload {
	case "fig-matrix":
		err = runFigMatrix(b)
	case "dag-campaign":
		err = runDAGCampaign(b)
	case "serve":
		err = runServe(b)
	}
	close(stop)
	samplers.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
		if err := b.tr.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("spans written to", path)
	}
	b.printResult()
}

// fail counts one failed operation; the first ten reasons go to stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// fingerprint is what every repetition of one simulation must reproduce.
type fingerprint struct {
	Cycles, Accesses, ImageHash uint64
}

// checkReport applies the output checks to one simulation report: zero
// stale reads, and the same cycles, accesses and memory-image hash as every
// earlier repetition of the same simulation in this run (traced or not).
func (b *bench) checkReport(key string, rep *cpelide.Report) {
	if err := rep.CheckConsistency(); err != nil {
		b.fail("%s: %v", key, err)
		return
	}
	fp := fingerprint{rep.Cycles, rep.Accesses, rep.ImageHash}
	if prev, ok := b.prints[key]; ok && prev != fp {
		b.fail("%s: repetition diverged: %+v, first run %+v", key, fp, prev)
	} else if !ok {
		b.prints[key] = fp
	}
}

// usage is a process-wide resource snapshot.
type usage struct {
	at     time.Time
	cpu    time.Duration
	alloc  uint64
	memory int // first resident-memory sample of the interval
	clock  int // first clock-rate probe of the interval
}

// snapshot starts a measured interval; since ends it.
func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resSamples.Lock()
	defer resSamples.Unlock()
	clockRate.Lock()
	defer clockRate.Unlock()
	return usage{
		at:     time.Now(),
		cpu:    processCPU(),
		alloc:  ms.TotalAlloc,
		memory: len(resSamples.mb),
		clock:  len(clockRate.ghz),
	}
}

// cost is what one repetition of a job set took.
type cost struct {
	wall, cpu      time.Duration
	allocMB, rssMB float64
	ghz            float64 // the clock rate over the interval
}

func since(u usage) cost {
	now := snapshot()
	resSamples.Lock()
	rss := quantile(append(resSamples.mb[u.memory:len(resSamples.mb):len(resSamples.mb)], mb(resident())), 0.95)
	resSamples.Unlock()
	return cost{
		wall:    now.at.Sub(u.at),
		cpu:     now.cpu - u.cpu,
		allocMB: float64(now.alloc-u.alloc) / (1 << 20),
		rssMB:   rss,
		ghz:     rateSince(u.clock),
	}
}

// cpuS is the interval's process CPU time at the reference clock.
func (c cost) cpuS() float64 { return atRef(c.cpu, c.ghz).Seconds() }

// Linux's CPU-time clock ids, which package syscall does not name.
const clockProcessCPU, clockThreadCPU = 2, 3

// cpuClock reads a CPU-time clock. These clocks include the time the
// running thread has used since the last scheduler tick. Under tick-based
// CPU accounting getrusage does not, so its figures move in 4 ms steps at
// HZ=250, as large as one dag-campaign simulation.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for these ids
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time (user + system) of the whole process.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// clocks reads the wall clock and the calling thread's CPU clock. Per-run
// service times use the thread clock: on a shared VM, steal time (up to a
// fifth of the CPU on a 2-vCPU VM) stretches wall times by whatever the
// neighbours do but is not charged to the thread. Callers pin the
// goroutine with runtime.LockOSThread between the two readings.
type clocks struct {
	wall time.Time
	cpu  time.Duration
}

func now() clocks {
	return clocks{wall: time.Now(), cpu: cpuClock(clockThreadCPU)}
}

// elapsed is the difference of two clock readings.
type elapsed struct{ wall, cpu time.Duration }

func (c clocks) since(start clocks) elapsed {
	return elapsed{wall: c.wall.Sub(start.wall), cpu: c.cpu - start.cpu}
}

// resSamples holds the resident memory sampled every 2 ms. An interval's
// memory is the 95th percentile of its samples. A maximum is one extreme
// over thousands of garbage-collection cycles: whether one more machine's
// arrays happened to be resident at the same moment moves it by a whole
// machine, 13 MB. The lifetime high-water mark getrusage reports spread by
// a fifth between seeds on dag-campaign, and the maximum of a run by a
// fifth on fig-matrix. Lower down, serve's samples fall into two levels, 49
// and 57 MB, with the number of simulations in flight, and both the median
// of one-second peaks and the 90th percentile flipped between them.
var resSamples struct {
	sync.Mutex
	mb []float64
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// resident returns the memory the Go runtime holds from the OS: everything
// it mapped (heap, stacks, metadata) minus heap pages it returned.
func resident() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// sampleResident samples resident() every 2 ms until stop is closed.
func sampleResident(stop <-chan struct{}) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			r := mb(resident())
			resSamples.Lock()
			resSamples.mb = append(resSamples.mb, r)
			resSamples.Unlock()
		}
	}
}

// CPU times are reported at a reference clock rate: measured CPU time
// times the clock rate measured over the same interval, over refGHz. That
// is the cycle count, in seconds of a refGHz clock. A shared host's cores
// change speed with the load its other guests put on the chip. The clock
// rate sampleClock measures on a 2-vCPU VM spread 5% between runs a few
// minutes apart, and scaling by it halved the spread of the fig-matrix CPU
// times (eight seeds: cpu_s 11.5% to 5.8%, per-simulation p50 8.0% to 3.1%). The
// VM has no hardware cycle counter, so the rate comes from a probe.
const refGHz = 3.0

// The clock-rate probe is a chain of probeIters multiply-increments, each
// needing the previous result: IMUL (3 cycles) then INC (1 cycle) on
// x86-64. It runs every probeEvery, for about 0.6 ms.
const (
	probeIters         = 500_000
	probeCyclesPerIter = 4
	probeEvery         = 250 * time.Millisecond
)

//go:noinline
func mulChain(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*0x9E3779B97F4A7C15 + 1
	}
	return x
}

// clockRate holds the clock rate, in GHz, of every probe so far.
var clockRate struct {
	sync.Mutex
	ghz []float64
}

// sampleClock probes the clock rate at start and every probeEvery until
// stop is closed. It keeps its thread, so the thread's CPU clock times the
// probe alone.
func sampleClock(stop <-chan struct{}) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var x uint64
	for {
		t0 := cpuClock(clockThreadCPU)
		x = mulChain(probeIters, x)
		if d := cpuClock(clockThreadCPU) - t0; d > 0 {
			clockRate.Lock()
			clockRate.ghz = append(clockRate.ghz, probeIters*probeCyclesPerIter/float64(d))
			clockRate.Unlock()
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// rateSince returns the median clock rate of the probes from the i-th on,
// or of the last five when the interval holds none.
func rateSince(i int) float64 {
	clockRate.Lock()
	defer clockRate.Unlock()
	g := clockRate.ghz
	if len(g) == 0 {
		return refGHz
	}
	if i >= len(g) {
		i = max(len(g)-5, 0)
	}
	return median(g[i:])
}

// atRef converts a CPU time measured at ghz to the reference clock.
func atRef(d time.Duration, ghz float64) time.Duration {
	return time.Duration(float64(d) * ghz / refGHz)
}

// repeat runs rep until the measurement window is spent: at least minReps
// times, then while one more repetition of median length still fits. In a
// traced run even repetitions run untraced and odd ones traced, so the
// tracing overhead compares like with like.
func (b *bench) repeat(minReps int, rep func(i int, traced bool) (cost, error)) error {
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+time.Duration(median(walls)) > b.window {
			return nil
		}
		traced := b.traced && i%2 == 1
		c, err := rep(i, traced)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d (traced=%v): %.3fs wall, %.3fs CPU at %.2f GHz\n", b.workload, i, traced, c.wall.Seconds(), c.cpu.Seconds(), c.ghz)
		walls = append(walls, float64(c.wall))
	}
}

// setupTimes runs a set-up step n times and returns the median process
// CPU seconds of one pass. Set-up takes milliseconds or less, so one sample
// would be mostly noise: the first, cold pass alone can take twice as long
// as the rest. CPU rather than wall time, for the reason given at clocks.
func setupTimes(n int, step func() error) (float64, error) {
	var s []float64
	for i := 0; i < n; i++ {
		t0 := processCPU()
		if err := step(); err != nil {
			return 0, err
		}
		s = append(s, (processCPU() - t0).Seconds())
	}
	return median(s), nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// repStats collects per-repetition end-to-end samples of one workload.
type repStats struct {
	wall, cpu, maccess, maccessCPU, allocPerRun, goodput, rssMB []float64
	latMS                                                       []float64 // every job of every repetition
}

// addLatency records one job's latency in one repetition.
func (r *repStats) addLatency(d time.Duration) { r.latMS = append(r.latMS, float64(d)/1e6) }

// latency returns the q-quantile of the latencies of every job in every
// repetition. fig-matrix has only 72 simulations per repetition, so a
// quantile over jobs of per-job medians left about 7 jobs beyond p90; it
// spread 12.5% over ten seeds. Pooled over six repetitions, about 40
// samples lie beyond p90, and over five seeds it spread 2.9% against 5.2%.
func (r *repStats) latency(q float64) float64 { return quantile(r.latMS, q) }

func (r *repStats) add(c cost, runs int, accesses uint64, withinLimit int) {
	r.wall = append(r.wall, c.wall.Seconds())
	r.cpu = append(r.cpu, c.cpuS())
	r.maccess = append(r.maccess, float64(accesses)/c.wall.Seconds()/1e6)
	r.maccessCPU = append(r.maccessCPU, float64(accesses)/c.cpuS()/1e6)
	r.allocPerRun = append(r.allocPerRun, c.allocMB/float64(max(runs, 1)))
	r.rssMB = append(r.rssMB, c.rssMB)
	r.goodput = append(r.goodput, float64(withinLimit)/c.wall.Seconds())
}

// latencyLimit is the per-job limit goodput counts against.
const latencyLimit = 2 * time.Second

// setE2E records the end-to-end metrics every workload reports.
func (b *bench) setE2E(r *repStats, setupS float64) {
	b.e2e["cpu_s"] = metric{median(r.cpu), "s"}
	b.e2e["maccess_per_cpu_s"] = metric{median(r.maccessCPU), "M/s"}
	b.e2e["alloc_mb_per_run"] = metric{median(r.allocPerRun), "MB"}
	b.e2e["serve_p50_ms"] = metric{r.latency(0.5), "ms"}
	b.e2e["serve_p90_ms"] = metric{r.latency(0.9), "ms"}
	b.e2e["rss_p95_mb"] = metric{median(r.rssMB), "MB"}
	b.e2e["setup_s"] = metric{setupS, "s"}
	b.wall["wall_s"] = metric{median(r.wall), "s"}
	b.wall["maccess_per_s"] = metric{median(r.maccess), "M/s"}
	b.wall["serve_goodput_jps"] = metric{median(r.goodput), "1/s"}
	b.wall["clock_ghz"] = metric{rateSince(0), "GHz"}
}

// setOverhead records how much slower traced repetitions ran.
func (b *bench) setOverhead(untraced, traced []float64) {
	b.layers["trace.overhead_ratio"] = metric{ratio(median(traced), median(untraced)) - 1, "ratio"}
}

func (b *bench) printResult() {
	defs, got := endToEnd, b.e2e
	if b.traced {
		defs, got = perLayer, b.layers
		for k, v := range b.model {
			got[k] = v
		}
	}
	metrics, err := pick(defs, got)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Human-readable lines first; the result is the last line.
	for _, set := range []map[string]metric{b.e2e, b.wall, b.model, b.layers} {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-40s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	line, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Track (pid) assignment in the exported trace: one process row per
// component class, with one thread track per stream or chiplet.
const (
	pidStreams  = 1
	pidChiplets = 2
	pidCP       = 3
	pidFarm     = 4
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format"), loadable by Perfetto and chrome://tracing. Timestamps are in
// microseconds by convention; we export GPU core cycles directly, which
// preserves every relative relationship the viewer cares about.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeJSON exports the recorded timeline as Chrome trace-event JSON:
// one track per stream (kernel spans and transfer counters), one per chiplet
// (flush/invalidate operations), and a CP track (per-launch synchronization
// exposure). Events are emitted in nondecreasing timestamp order.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	events := r.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })

	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"clock": "gpu-core-cycles", "source": "cpelide simulator"},
		TraceEvents:     make([]chromeEvent, 0, len(events)+8),
	}

	// Metadata: name the process rows and every thread track seen.
	meta := func(pid, tid int, key, label string) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": label},
		})
	}
	meta(pidStreams, 0, "process_name", "streams")
	meta(pidChiplets, 0, "process_name", "chiplets")
	meta(pidCP, 0, "process_name", "command processor")
	streams := map[int32]bool{}
	chiplets := map[int32]bool{}
	workers := map[int32]bool{}
	for _, e := range events {
		switch e.Kind {
		case KindKernel, KindXfer:
			streams[e.Stream] = true
		case KindSync:
			chiplets[e.Chiplet] = true
		case KindJob:
			workers[e.Chiplet] = true
		case KindPlan, KindOracle:
			// Rendered on fixed CP tracks; no per-event metadata to collect.
		}
	}
	for _, s := range sortedKeys(streams) {
		meta(pidStreams, int(s), "thread_name", fmt.Sprintf("stream %d", s))
	}
	for _, c := range sortedKeys(chiplets) {
		meta(pidChiplets, int(c), "thread_name", fmt.Sprintf("chiplet %d", c))
	}
	meta(pidCP, 0, "thread_name", "sync plans")
	if len(workers) > 0 {
		meta(pidFarm, 0, "process_name", "experiment farm")
		for _, w := range sortedKeys(workers) {
			if w < 0 {
				meta(pidFarm, int(w), "thread_name", "cache hits")
				continue
			}
			meta(pidFarm, int(w), "thread_name", fmt.Sprintf("worker %d", w))
		}
	}

	for _, e := range events {
		switch e.Kind {
		case KindKernel:
			dur := e.Dur
			if dur == 0 {
				dur = 1 // zero-width spans are invisible in viewers
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: "kernel", Ph: "X",
				Ts: e.Ts, Dur: dur, Pid: pidStreams, Tid: int(e.Stream),
				Args: map[string]any{"inst": e.Inst, "sync_cycles": e.Cycles},
			})
		case KindSync:
			dur := e.Dur
			if dur == 0 {
				dur = 1
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Op.String(), Cat: "sync", Ph: "X",
				Ts: e.Ts, Dur: dur, Pid: pidChiplets, Tid: int(e.Chiplet),
				Args: map[string]any{"lines": e.Lines, "cycles": e.Cycles},
			})
		case KindPlan:
			if e.Dur == 0 {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "plan", Cat: "sync", Ph: "i", S: "t",
					Ts: e.Ts, Pid: pidCP, Tid: 0,
					Args: map[string]any{"ops": e.Lines},
				})
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "plan", Cat: "sync", Ph: "X",
				Ts: e.Ts, Dur: e.Dur, Pid: pidCP, Tid: 0,
				Args: map[string]any{"ops": e.Lines, "exposed_cycles": e.Dur},
			})
		case KindXfer:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "remote flits", Cat: "noc", Ph: "C",
				Ts: e.Ts, Pid: pidStreams, Tid: int(e.Stream),
				Args: map[string]any{"flits": e.Lines},
			})
		case KindJob:
			// Split the record into its queue-wait and execution phases so
			// Perfetto shows backlog versus occupancy per worker.
			end := e.Ts + e.Dur
			if wait := e.Cycles - e.Ts; wait > 0 {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "queued", Cat: "farm", Ph: "X",
					Ts: e.Ts, Dur: wait, Pid: pidFarm, Tid: int(e.Chiplet),
					Args: map[string]any{"job": e.Name},
				})
			}
			dur := end - e.Cycles
			if dur == 0 {
				dur = 1
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: "farm", Ph: "X",
				Ts: e.Cycles, Dur: dur, Pid: pidFarm, Tid: int(e.Chiplet),
			})
		case KindOracle:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: "oracle", Ph: "i", S: "t",
				Ts: e.Ts, Pid: pidCP, Tid: 1,
				Args: map[string]any{"chiplet": e.Chiplet},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeFile writes the Chrome trace to path.
func (r *Recorder) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

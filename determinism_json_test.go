package cpelide

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Two identical runs under every protocol must serialize to byte-identical
// JSON. Replayability (DESIGN §11) is claimed at artifact granularity — the
// whole Report, including per-kernel breakdowns and histograms — not just
// headline counters, and the cpelint determinism pass (DESIGN §12) exists to
// keep the simulation core free of wall-clock reads, unseeded rand, and
// map-order leaks that would break this test.
func TestReportJSONByteIdentical(t *testing.T) {
	checkReplaysByteIdentical(t, Options{PerKernelStats: true})
}

// TestDeterminism is the same check with per-kernel stats off, the options
// the paper figures and most farm jobs run with.
func TestDeterminism(t *testing.T) {
	checkReplaysByteIdentical(t, Options{})
}

// checkReplaysByteIdentical runs producerConsumer(4) twice under each
// protocol with opt and fails unless both reports marshal to the same bytes.
func checkReplaysByteIdentical(t *testing.T, opt Options) {
	t.Helper()
	for _, p := range allProtocols {
		opt.Protocol = p
		run := func() []byte {
			t.Helper()
			rep, err := Run(DefaultConfig(4), producerConsumer(4), opt)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			buf, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			return buf
		}
		first, second := run(), run()
		if !bytes.Equal(first, second) {
			t.Errorf("%v: two identical runs produced different JSON reports\nfirst:  %.200s\nsecond: %.200s",
				p, first, second)
		}
	}
}

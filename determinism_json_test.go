package cpelide

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Two identical runs must serialize to byte-identical JSON. Replayability
// (DESIGN §11) is claimed at artifact granularity — the whole Report,
// including per-kernel breakdowns and histograms — not just headline
// counters, and the cpelint determinism pass (DESIGN §12) exists to keep the
// simulation core free of wall-clock reads, unseeded rand, and map-order
// leaks that would break this test.
func TestReportJSONByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"baseline", Options{Protocol: ProtocolBaseline, PerKernelStats: true}},
		{"cpelide", Options{Protocol: ProtocolCPElide, PerKernelStats: true}},
		{"hmg", Options{Protocol: ProtocolHMG, PerKernelStats: true}},
	}
	for _, c := range cases {
		run := func() []byte {
			t.Helper()
			rep, err := Run(DefaultConfig(4), producerConsumer(4), c.opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			buf, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return buf
		}
		first, second := run(), run()
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two identical runs produced different JSON reports\nfirst:  %.200s\nsecond: %.200s",
				c.name, first, second)
		}
	}
}

package main

import (
	"strings"
	"testing"
)

func hostFile(h *benchHost, ns float64, allocs int64) *benchFile {
	return &benchFile{Schema: schemaV1, Host: h, Benchmarks: []benchResult{
		{Name: "square/baseline", NsPerOp: ns, AllocsPerOp: allocs},
	}}
}

// TestGateRefusesNsAcrossHosts: ns_per_op from different hosts, or from a
// file that records none, is never compared; the mismatch itself fails the
// gate and names both hosts. Machine-independent metrics still gate. It is
// also the gate's self-test: a planted 25% ns or allocs regression must fail,
// gated with every metric or with that metric alone, and a metric the files
// do not carry fails rather than gating nothing.
func TestGateRefusesNsAcrossHosts(t *testing.T) {
	a := &benchHost{GOOS: "linux", GOARCH: "amd64", CPU: "Model A", NumCPU: 2}
	b := &benchHost{GOOS: "linux", GOARCH: "amd64", CPU: "Model B", NumCPU: 2}
	all := []string{"ns", "allocs"}

	if f := gate(hostFile(a, 100, 100), hostFile(a, 105, 105), 0.10, all); len(f) != 0 {
		t.Errorf("same host, 5%% worse: %v, want pass", f)
	}
	for _, tc := range []struct {
		metric string
		cur    *benchFile
	}{
		{"ns", hostFile(a, 125, 100)},
		{"allocs", hostFile(a, 100, 125)},
	} {
		for _, metrics := range [][]string{all, {tc.metric}} {
			f := gate(hostFile(a, 100, 100), tc.cur, 0.10, metrics)
			if len(f) != 1 || !strings.HasPrefix(f[0], "square/baseline: "+tc.metric+" regressed") {
				t.Errorf("planted 25%% %s, gating %v: %v, want one %s regression", tc.metric, metrics, f, tc.metric)
			}
		}
	}
	for _, tc := range []struct {
		name              string
		base, cur         *benchHost
		wantBase, wantCur string
	}{
		{"different CPU", a, b, "Model A", "Model B"},
		{"baseline without host", nil, a, "(no host recorded)", "Model A"},
	} {
		// A faster run on the other host must still fail: it is not compared.
		f := gate(hostFile(tc.base, 100, 100), hostFile(tc.cur, 50, 100), 0.10, all)
		if len(f) != 1 || !strings.Contains(f[0], tc.wantBase) || !strings.Contains(f[0], tc.wantCur) {
			t.Errorf("%s: %v, want one host failure naming both hosts", tc.name, f)
		}
	}
	if f := gate(hostFile(nil, 100, 100), hostFile(b, 500, 100), 0.10, []string{"allocs"}); len(f) != 0 {
		t.Errorf("machine-independent gate across hosts: %v, want pass", f)
	}
	if f := gate(hostFile(a, 100, 100), hostFile(a, 100, 100), 0.10, []string{"allocs", "cycles"}); len(f) != 1 || !strings.HasPrefix(f[0], "cycles: not a gated metric") {
		t.Errorf("gating an unrecorded metric: %v, want one failure naming it", f)
	}
}

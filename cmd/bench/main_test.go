package main

import (
	"strings"
	"testing"
)

func hostFile(h *benchHost, ns float64) *benchFile {
	return &benchFile{Schema: schemaV1, Host: h, Benchmarks: []benchResult{
		{Name: "square/baseline", NsPerOp: ns, AllocsPerOp: 10, Cycles: 100, Accesses: 50},
	}}
}

// TestGateRefusesNsAcrossHosts: ns_per_op from different hosts, or from a
// file that records none, is never compared; the mismatch itself fails the
// gate and names both hosts. Machine-independent metrics still gate.
func TestGateRefusesNsAcrossHosts(t *testing.T) {
	a := &benchHost{GOOS: "linux", GOARCH: "amd64", CPU: "Model A", NumCPU: 2}
	b := &benchHost{GOOS: "linux", GOARCH: "amd64", CPU: "Model B", NumCPU: 2}
	all := []string{"ns", "allocs", "cycles", "accesses"}

	if f := gate(hostFile(a, 100), hostFile(a, 105), 0.10, all); len(f) != 0 {
		t.Errorf("same host, 5%% slower: %v, want pass", f)
	}
	if f := gate(hostFile(a, 100), hostFile(a, 125), 0.10, all); len(f) != 1 || !strings.HasPrefix(f[0], "square/baseline: ns regressed") {
		t.Errorf("same host, planted 25%%: %v, want one ns regression", f)
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
		f := gate(hostFile(tc.base, 100), hostFile(tc.cur, 50), 0.10, all)
		if len(f) != 1 || !strings.Contains(f[0], tc.wantBase) || !strings.Contains(f[0], tc.wantCur) {
			t.Errorf("%s: %v, want one host failure naming both hosts", tc.name, f)
		}
	}
	if f := gate(hostFile(nil, 100), hostFile(b, 500), 0.10, []string{"allocs", "cycles", "accesses"}); len(f) != 0 {
		t.Errorf("machine-independent gate across hosts: %v, want pass", f)
	}
}

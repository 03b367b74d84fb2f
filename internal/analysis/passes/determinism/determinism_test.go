package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/determinism"
)

func TestSimCriticalPackage(t *testing.T) {
	analysistest.Run(t, "testdata", "cp", determinism.Analyzer)
}

func TestNonCriticalPackageExempt(t *testing.T) {
	analysistest.Run(t, "testdata", "notsim", determinism.Analyzer)
}

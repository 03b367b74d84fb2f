package eventsafety_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/eventsafety"
)

func TestDelayExpressions(t *testing.T) {
	analysistest.Run(t, "testdata", "sched", eventsafety.Analyzer)
}

func TestLoopCapturePre122(t *testing.T) {
	analysistest.RunVersion(t, "testdata", "loop", "go1.21", eventsafety.Analyzer)
}

func TestLoopCaptureSafeAt122(t *testing.T) {
	analysistest.Run(t, "testdata", "loop122", eventsafety.Analyzer)
}

package atomiccounter_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/atomiccounter"
)

func TestAtomicCounter(t *testing.T) {
	analysistest.Run(t, "testdata", atomiccounter.Analyzer, "stats", "mib", "telemetry")
}

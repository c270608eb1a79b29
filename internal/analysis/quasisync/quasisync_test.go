package quasisync_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/quasisync"
)

func TestQuasisync(t *testing.T) {
	analysistest.Run(t, "testdata", quasisync.Analyzer, "quasisync", "adversary")
}

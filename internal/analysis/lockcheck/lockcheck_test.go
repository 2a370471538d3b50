package lockcheck_test

import (
	"testing"

	"tdcache/internal/analysis/analysistest"
	"tdcache/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "lc/a")
}

func TestLockcheckAtomicFields(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "lc/atomics")
}

package purecheck_test

import (
	"testing"

	"tdcache/internal/analysis/analysistest"
	"tdcache/internal/analysis/purecheck"
)

func TestPurecheck(t *testing.T) {
	analysistest.Run(t, "testdata", purecheck.Analyzer, "pc/use")
}

func TestPurecheckSweepJobs(t *testing.T) {
	analysistest.Run(t, "testdata", purecheck.Analyzer, "pc/jobs")
}

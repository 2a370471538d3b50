package cpu

import (
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

// TestReplaySeamMatchesLive runs a System on traces too short for the
// run, where the generator falls back to live generation mid-run, a
// seam sweeps never reach because they size traces to cover the run.
// Traces of 0, 1 and 100 instructions, and one exactly as long as the
// run fetches, must each give the Metrics and cache counters of a live
// run, and fetch the same number of instructions.
func TestReplaySeamMatchesLive(t *testing.T) {
	const n = 6000
	m := oracleMap{"mixed", retMixed.build, 0}
	for _, bench := range []string{"gzip", "mcf"} {
		p, _ := workload.ByName(bench)
		for _, scheme := range []core.Scheme{core.NoRefreshLRU, core.RSPFIFO} {
			live := buildSystem(t, bench, scheme, m, DefaultL2(), 7)
			want := live.Run(n)
			fetched := live.Gen.Count()
			for _, length := range []int{0, 1, 100, int(fetched)} {
				sys := buildSystem(t, bench, scheme, m, DefaultL2(), 7)
				sys.Gen.ResetFrom(workload.NewTrace(p, 7, length))
				if got := sys.Run(n); got != want {
					t.Fatalf("%s %v trace %d: metrics\n got  %#v\n want %#v", bench, scheme, length, got, want)
				}
				if sys.Cache.C != live.Cache.C {
					t.Fatalf("%s %v trace %d: cache counters\n got  %#v\n want %#v", bench, scheme, length, sys.Cache.C, live.Cache.C)
				}
				if got := sys.Gen.Count(); got != fetched {
					t.Fatalf("%s %v trace %d: fetched %d instructions, live run %d", bench, scheme, length, got, fetched)
				}
			}
		}
	}
}

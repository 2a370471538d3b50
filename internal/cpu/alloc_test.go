package cpu

import (
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

// TestSystemStepZeroAllocs is the proof test behind the `// hotpath:` tag
// on System.Step: once the memory-hierarchy queues reach steady state, a
// simulated cycle — fetch, dispatch, issue, commit, cache and L2 traffic
// included — performs zero heap allocations, for an ideal 6T cache and
// for retention-limited 3T1D schemes alike.
func TestSystemStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name   string
		scheme core.Scheme
		ideal  bool
	}{
		{"ideal-6T", core.NoRefreshLRU, true},
		{"partial-refresh-DSP", core.PartialRefreshDSP, false},
		{"RSP-LRU", core.RSPLRU, false},
	}
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := core.DefaultConfig(tc.scheme)
			ret := core.IdealRetention(ccfg.Lines())
			if !tc.ideal {
				for l := range ret {
					switch l % 8 {
					case 0:
						ret[l] = 0
					case 1, 2:
						ret[l] = 3 * 1024
					default:
						ret[l] = 7 * 1024
					}
				}
			}
			cache, err := core.New(ccfg, ret)
			if err != nil {
				t.Fatal(err)
			}
			sys := NewSystem(DefaultConfig(), cache, NewL2(DefaultL2()), workload.NewGenerator(prof, 42))
			for i := 0; i < 200_000; i++ {
				sys.Step()
			}
			avg := testing.AllocsPerRun(5000, sys.Step)
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state cycle, want 0", tc.name, avg)
			}
		})
	}
}

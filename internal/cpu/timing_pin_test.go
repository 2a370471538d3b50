package cpu

import (
	"testing"

	"tdcache/internal/core"
)

// TestTimingPinned pins the exact metrics of short runs across the
// issue, replay, bypass, refresh-theft and MSHR paths, so any change to
// the core's cycle timing fails here in about a second rather than only
// in the experiment goldens.
func TestTimingPinned(t *testing.T) {
	cases := []struct {
		bench  string
		scheme core.Scheme
		ret    retention
		want   Metrics
	}{
		{"gzip", core.NoRefreshLRU, retIdeal, Metrics{
			Cycles: 58323, Instructions: 20003, IPC: 0.34296932599489055, BranchAccuracy: 0.8099378881987578,
			Mispredicts: 459, Replays: 0, LoadPortRetries: 132,
			L2Reads: 224, L2Misses: 224, L2Writes: 0, ICacheMisses: 438,
			ROBFullCycles: 5581, IQFullCycles: 21967, FetchBlockedCycles: 25966,
		}},
		{"mcf", core.PartialRefreshDSP, retMixed, Metrics{
			Cycles: 256027, Instructions: 20003, IPC: 0.07812847863701876, BranchAccuracy: 0.7365957446808511,
			Mispredicts: 619, Replays: 0, LoadPortRetries: 105,
			L2Reads: 2813, L2Misses: 1910, L2Writes: 0, ICacheMisses: 382,
			ROBFullCycles: 4038, IQFullCycles: 123885, FetchBlockedCycles: 124282,
		}},
		{"fma3d", core.RSPFIFO, retMixed, Metrics{
			Cycles: 121542, Instructions: 20002, IPC: 0.16456862648302645, BranchAccuracy: 0.8684738955823293,
			Mispredicts: 131, Replays: 0, LoadPortRetries: 158,
			L2Reads: 951, L2Misses: 647, L2Writes: 0, ICacheMisses: 652,
			ROBFullCycles: 4621, IQFullCycles: 84242, FetchBlockedCycles: 28878,
		}},
		{"twolf", core.NoRefreshLRU, retMixed, Metrics{
			Cycles: 89969, Instructions: 20003, IPC: 0.22233213662483745, BranchAccuracy: 0.8161255016417366,
			Mispredicts: 504, Replays: 682, LoadPortRetries: 74,
			L2Reads: 1603, L2Misses: 408, L2Writes: 0, ICacheMisses: 799,
			ROBFullCycles: 5977, IQFullCycles: 33318, FetchBlockedCycles: 45845,
		}},
		{"gcc", core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU}, retShort, Metrics{
			Cycles: 79646, Instructions: 20002, IPC: 0.251136278030284, BranchAccuracy: 0.8544152744630071,
			Mispredicts: 427, Replays: 654, LoadPortRetries: 134,
			L2Reads: 1339, L2Misses: 334, L2Writes: 0, ICacheMisses: 1078,
			ROBFullCycles: 6323, IQFullCycles: 28973, FetchBlockedCycles: 39148,
		}},
		{"mesa", core.PartialRefreshDSP, retAllDead, Metrics{
			Cycles: 62451, Instructions: 20000, IPC: 0.32025107684424586, BranchAccuracy: 0.8429189857761287,
			Mispredicts: 254, Replays: 0, LoadPortRetries: 0,
			L2Reads: 5128, L2Misses: 249, L2Writes: 1844, ICacheMisses: 637,
			ROBFullCycles: 8849, IQFullCycles: 27191, FetchBlockedCycles: 22225,
		}},
	}
	for _, tc := range cases {
		s := newSystem(t, tc.bench, tc.scheme, tc.ret, 7)
		if got := s.Run(20000); got != tc.want {
			t.Errorf("%s/%v/%d:\n got  %#v\n want %#v", tc.bench, tc.scheme, tc.ret, got, tc.want)
		}
	}
}

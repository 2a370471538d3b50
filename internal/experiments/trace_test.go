package experiments

import (
	"bytes"
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/sweep"
)

// TestTraceSharedAcrossWorkers drives a two-wide Fig. 10 sweep whose
// workers replay the same memoized traces: each benchmark's stream is
// recorded once for the whole family, and the output matches a
// sequential build. CI runs it under the race detector.
func TestTraceSharedAcrossWorkers(t *testing.T) {
	build := func(parallel int) (*Params, []byte) {
		p := tinyParams(parallel)
		p.Chips = 2
		p.Instructions = 1_500
		var out bytes.Buffer
		if err := Run("fig10", p, &out); err != nil {
			t.Fatal(err)
		}
		return p, out.Bytes()
	}
	par, parOut := build(2)
	_, seqOut := build(1)
	if !bytes.Equal(parOut, seqOut) {
		t.Errorf("fig10 differs between -parallel 2 and -parallel 1:\n%s\n---\n%s", parOut, seqOut)
	}
	memo := &par.rig.memos.trace
	if got, want := memo.Computes(), uint64(len(par.Benchmarks)); got != want || memo.Len() != len(par.Benchmarks) {
		t.Errorf("recorded %d traces (%d keys) for %d benchmarks, want one each", got, memo.Len(), want)
	}
}

// TestRunsStayInsideTrace checks the trace length runOne memoizes
// against what runs really fetch: no run may outlive its trace and fall
// back to live generation.
func TestRunsStayInsideTrace(t *testing.T) {
	p := tinyParams(1)
	specs := []cacheSpec{
		{Scheme: core.NoRefreshLRU, Retention: core.IdealRetention(1024)},
		{Scheme: core.PartialRefreshDSP, Retention: core.IdealRetention(1024)},
		{Scheme: core.RSPLRU, Retention: make(core.RetentionMap, 1024)},
	}
	for _, b := range []string{"gzip", "mcf", "fma3d", "crafty"} {
		for _, spec := range specs {
			p.Pool().Run(1, func(job int, w *sweep.Worker) {
				p.runOne(w, spec, p.trace(b, p.Seed))
				h := w.Harness.(*harness)
				fetched := h.gen.Count()
				if fetched < p.Instructions {
					t.Errorf("%s %v: fetched %d instructions, under the %d committed", b, spec.Scheme, fetched, p.Instructions)
				}
				if limit := uint64(p.trace(b, p.Seed).Len()); fetched > limit {
					t.Errorf("%s %v: fetched %d instructions, past the %d-instruction trace", b, spec.Scheme, fetched, limit)
				}
			})
		}
	}
}

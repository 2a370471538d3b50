package experiments

import (
	"math"
	"sort"
	"strconv"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
)

// Digest returns the content hash of everything that shapes an
// experiment's output: the technology node, the root seed, the
// population and run sizes, the benchmark selection, the cell backend,
// and the artifact schema version. Params.Parallel is deliberately
// excluded — the sweep engine guarantees output is byte-identical
// regardless of worker count, so parallelism must not fragment the
// result store.
//
// The backend enters the hash only when it is not the default: "" and
// "3t1d" both contribute nothing, keeping every pre-refactor 3T1D
// digest (and therefore every stored artifact key) byte-identical. A
// non-default backend hashes its name plus its DigestParams, so store
// keys can never collide across backends or backend configurations.
func Digest(p *Params) string {
	h := artifact.NewHasher()
	h.Int("schema", artifact.SchemaVersion)
	hashTech(h, &p.Tech)
	h.Uint("seed", p.Seed)
	h.Int("chips", int64(p.Chips))
	h.Int("dist_chips", int64(p.DistChips))
	h.Uint("instructions", p.Instructions)
	h.Strings("benchmarks", p.Benchmarks)
	if p.Backend != "" && p.Backend != circuit.DefaultBackendName {
		h.String("backend", p.Backend)
		if b, ok := circuit.LookupBackend(p.Backend); ok {
			for _, bp := range b.DigestParams() {
				h.Uint("backend."+bp.Name, math.Float64bits(bp.Value))
			}
		}
	}
	return h.Sum()
}

// hashTech mixes every circuit.Tech field through the hasher under a
// stable label, so the digest recipe is explicit rather than tied to
// Go's struct-printing format. Floats are mixed by IEEE-754 bit pattern
// (exact, and unit-agnostic: a digest has no physical dimension).
// TestParamsDigest walks Tech with reflection, so a field added to Tech
// but not listed here fails the build's tests instead of silently
// dropping out of the cache key.
func hashTech(h *artifact.Hasher, t *circuit.Tech) {
	bits := func(label string, v uint64) { h.Uint("tech."+label, v) }
	h.String("tech.name", t.Name)
	h.Int("tech.node_nm", int64(t.NodeNM))
	bits("vdd", math.Float64bits(t.Vdd))
	bits("vth0", math.Float64bits(t.Vth0))
	bits("freq_ghz", math.Float64bits(t.FreqGHz))
	bits("cell_area_um2", math.Float64bits(t.CellAreaUM2))
	bits("wire_width_um", math.Float64bits(t.WireWidthUM))
	bits("wire_thick_um", math.Float64bits(t.WireThickUM))
	bits("oxide_nm", math.Float64bits(t.OxideNM))
	bits("access_time_6t", math.Float64bits(t.AccessTime6T))
	bits("retention_3t1d", math.Float64bits(t.Retention3T1D))
	bits("leakage_power_6t", math.Float64bits(t.LeakagePower6T))
	bits("energy_per_access", math.Float64bits(t.EnergyPerAccess))
	bits("alpha", math.Float64bits(t.Alpha))
	bits("sub_vt_slope", math.Float64bits(t.SubVTSlope))
	bits("sce", math.Float64bits(t.SCE))
	bits("leak_sce", math.Float64bits(t.LeakSCE))
	bits("bitline_frac", math.Float64bits(t.BitlineFrac))
	bits("diode_boost", math.Float64bits(t.DiodeBoost))
	bits("margin_frac", math.Float64bits(t.MarginFrac))
	bits("t3_weight", math.Float64bits(t.T3Weight))
	bits("ret_leak_sens", math.Float64bits(t.RetLeakSens))
	bits("flip_threshold", math.Float64bits(t.FlipThreshold))
}

// result is embedded in every experiment result. It carries the
// registry ID and the run's provenance, and gives every result its
// artifact.Artifact ID.
type result struct {
	id string
	// Prov records the run that produced the result.
	Prov artifact.Provenance
}

// newResult stamps the run configuration into a result for experiment
// id. Params is immutable during builds — multi-node sweeps (Table 3,
// the Fig. 12 design points) derive per-node copies with WithTech — so
// provenance can be read at any time, concurrently with any build.
func (p *Params) newResult(id string) result {
	return result{id: id, Prov: artifact.Provenance{
		SchemaVersion: artifact.SchemaVersion,
		ParamsDigest:  Digest(p),
		Seed:          p.Seed,
		Tech:          p.Tech.Name,
	}}
}

// ArtifactID implements artifact.Artifact.
func (r *result) ArtifactID() string { return r.id }

// table starts the result's Table with the identity fields from its
// registry Spec, so titles and kinds have a single source of truth.
func (r *result) table() *artifact.Table {
	sp, ok := Lookup(r.id)
	if !ok {
		panic("experiments: no registry spec for " + r.id)
	}
	return &artifact.Table{ID: r.id, Title: sp.Title, Kind: sp.Kind, Prov: r.Prov}
}

// schemeKey is the snake_case column/metric key of a scheme.
func schemeKey(s core.Scheme) string {
	switch s {
	case core.NoRefreshLRU:
		return "norefresh_lru"
	case core.PartialRefreshDSP:
		return "partial_dsp"
	case core.RSPFIFO:
		return "rsp_fifo"
	case core.RSPLRU:
		return "rsp_lru"
	}
	return s.String()
}

// ---- fig1 ----

// ArtifactTable builds the long-form (series, cycles, fraction) table.
func (r *Fig1Result) ArtifactTable() *artifact.Table {
	t := r.table()
	benches := make([]string, 0, len(r.CDF))
	for bench := range r.CDF {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	var series []string
	var cycles []int64
	var frac []float64
	add := func(name string, vals []float64) {
		for i, v := range vals {
			series = append(series, name)
			cycles = append(cycles, r.EdgesCycles[i])
			frac = append(frac, v)
		}
	}
	for _, b := range benches {
		add(b, r.CDF[b])
	}
	add("average", r.Average)
	t.Columns = []artifact.Column{
		artifact.Strings("series", series),
		artifact.Ints("cycles_since_fill", artifact.UnitCycles, cycles),
		artifact.Floats("cum_fraction", artifact.UnitFraction, frac),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("within_6k_cycles", artifact.UnitFraction, r.Within6K),
	}
	return t
}

// ---- fig4 ----

// ArtifactTable builds the access-time-curve table.
func (r *Fig4Result) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Columns = []artifact.Column{
		artifact.Floats("elapsed", artifact.UnitMicroseconds, r.ElapsedUS),
		artifact.Floats("nominal", artifact.UnitPicoseconds, r.NominalPS),
		artifact.Floats("weak", artifact.UnitPicoseconds, r.WeakPS),
		artifact.Floats("strong", artifact.UnitPicoseconds, r.StrongPS),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("sram_6t_access", artifact.UnitPicoseconds, r.SRAM6TPS),
		artifact.Met("nominal_retention", artifact.UnitMicroseconds, r.NominalRetUS),
		artifact.Met("weak_retention", artifact.UnitMicroseconds, r.WeakRetUS),
		artifact.Met("strong_retention", artifact.UnitMicroseconds, r.StrongRetUS),
	}
	return t
}

// ---- fig6a ----

// ArtifactTable builds the frequency-histogram table.
func (r *Fig6aResult) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Columns = []artifact.Column{
		artifact.Floats("freq_bin", artifact.UnitRatio, r.Bins),
		artifact.Floats("prob_1x", artifact.UnitFraction, r.Prob1X),
		artifact.Floats("prob_2x", artifact.UnitFraction, r.Prob2X),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("median_1x", artifact.UnitRatio, r.Median1X),
		artifact.Met("median_2x", artifact.UnitRatio, r.Median2X),
	}
	return t
}

// ---- fig6b ----

// ArtifactTable builds the long-form (panel, series, x, value) table
// covering all three Fig. 6b panels.
func (r *Fig6bResult) ArtifactTable() *artifact.Table {
	t := r.table()
	var panel, series []string
	var x, value []float64
	add := func(p, s string, xs, vs []float64) {
		for i, v := range vs {
			panel = append(panel, p)
			series = append(series, s)
			x = append(x, xs[i])
			value = append(value, v)
		}
	}
	add("retention_hist", "chip_prob", r.HistEdgesNS, r.HistProb)
	add("performance", "mean_perf", r.RetentionNS, r.MeanPerf)
	add("performance", "worst_perf", r.RetentionNS, r.WorstPerf)
	add("power", "normal_dyn", r.RetentionNS, r.NormalDyn)
	add("power", "refresh_dyn", r.RetentionNS, r.RefreshDyn)
	add("power", "total_dyn", r.RetentionNS, r.TotalDyn)
	t.Columns = []artifact.Column{
		artifact.Strings("panel", panel),
		artifact.Strings("series", series),
		artifact.Floats("retention", artifact.UnitNanoseconds, x),
		artifact.Floats("value", artifact.UnitRatio, value),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("dead_chip_frac", artifact.UnitFraction, r.DeadChipFrac),
	}
	t.Attrs = map[string]string{"worst_bench": r.WorstBench}
	return t
}

// ---- fig7 ----

// ArtifactTable builds the leakage-histogram table.
func (r *Fig7Result) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Columns = []artifact.Column{
		artifact.Floats("leakage_bin_max", artifact.UnitRatio, r.BinLabels),
		artifact.Floats("prob_6t", artifact.UnitFraction, r.Prob6T),
		artifact.Floats("prob_3t1d", artifact.UnitFraction, r.Prob3T1D),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("over_1p5x_6t", artifact.UnitFraction, r.Over1p5x6T),
		artifact.Met("over_golden_3t1d", artifact.UnitFraction, r.OverGolden3T1D),
		artifact.Met("max_6t", artifact.UnitRatio, r.Max6T),
		artifact.Met("max_3t1d", artifact.UnitRatio, r.Max3T1D),
	}
	return t
}

// ---- fig8 ----

// ArtifactTable builds the per-chip retention-histogram table.
func (r *Fig8Result) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Columns = []artifact.Column{
		artifact.Floats("retention_bin", artifact.UnitNanoseconds, r.BinCentersNS),
		artifact.Floats("good", artifact.UnitFraction, r.Good),
		artifact.Floats("median", artifact.UnitFraction, r.Median),
		artifact.Floats("bad", artifact.UnitFraction, r.Bad),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("good_dead", artifact.UnitFraction, r.GoodDead),
		artifact.Met("median_dead", artifact.UnitFraction, r.MedianDead),
		artifact.Met("bad_dead", artifact.UnitFraction, r.BadDead),
		artifact.Met("discard_rate", artifact.UnitFraction, r.DiscardRate),
		artifact.Met("good_chip", artifact.UnitCount, float64(r.GoodIdx)),
		artifact.Met("median_chip", artifact.UnitCount, float64(r.MedianIdx)),
		artifact.Met("bad_chip", artifact.UnitCount, float64(r.BadIdx)),
	}
	return t
}

// ---- fig9 ----

// ArtifactTable builds the scheme-matrix table.
func (r *Fig9Result) ArtifactTable() *artifact.Table {
	t := r.table()
	names := make([]string, len(r.Schemes))
	for i, s := range r.Schemes {
		names[i] = s.String()
	}
	t.Columns = []artifact.Column{
		artifact.Strings("scheme", names),
		artifact.Floats("good", artifact.UnitRatio, r.Perf[0]),
		artifact.Floats("median", artifact.UnitRatio, r.Perf[1]),
		artifact.Floats("bad", artifact.UnitRatio, r.Perf[2]),
	}
	t.Attrs = map[string]string{"best_scheme_bad_chip": r.Best().String()}
	return t
}

// ---- fig10 ----

// ArtifactTable builds the full per-chip population table, one row per
// chip in Order.
func (r *Fig10Result) ArtifactTable() *artifact.Table {
	t := r.table()
	n := len(r.Order)
	rank := make([]int64, n)
	chip := make([]int64, n)
	for i, ci := range r.Order {
		rank[i] = int64(i + 1)
		chip[i] = int64(ci)
	}
	t.Columns = []artifact.Column{
		artifact.Ints("rank", artifact.UnitCount, rank),
		artifact.Ints("chip", artifact.UnitCount, chip),
	}
	for si, s := range Fig10Schemes {
		t.Columns = append(t.Columns,
			artifact.Floats("perf_"+schemeKey(s), artifact.UnitRatio, r.Perf[si]))
	}
	for si, s := range Fig10Schemes {
		t.Columns = append(t.Columns,
			artifact.Floats("power_"+schemeKey(s), artifact.UnitRatio, r.Power[si]))
	}
	for si, s := range Fig10Schemes {
		t.Metrics = append(t.Metrics,
			artifact.Met("min_perf_"+schemeKey(s), artifact.UnitRatio, r.MinPerf[si]))
	}
	for si, s := range Fig10Schemes {
		t.Metrics = append(t.Metrics,
			artifact.Met("max_power_"+schemeKey(s), artifact.UnitRatio, r.MaxPower[si]))
	}
	return t
}

// ---- fig11 ----

// ArtifactTable builds the long-form (chip, scheme, ways, perf) table.
func (r *Fig11Result) ArtifactTable() *artifact.Table {
	t := r.table()
	chips := []string{"good", "median", "bad"}
	var chip, scheme []string
	var ways []int64
	var perf []float64
	for ci, name := range chips {
		for si, s := range Fig10Schemes {
			for ai, a := range r.Assocs {
				chip = append(chip, name)
				scheme = append(scheme, schemeKey(s))
				ways = append(ways, int64(a))
				perf = append(perf, r.Perf[ci][si][ai])
			}
		}
	}
	t.Columns = []artifact.Column{
		artifact.Strings("chip", chip),
		artifact.Strings("scheme", scheme),
		artifact.Ints("ways", artifact.UnitCount, ways),
		artifact.Floats("perf", artifact.UnitRatio, perf),
	}
	return t
}

// ---- fig12 ----

// ArtifactTable builds the long-form (scheme, µ, σ/µ, perf) surface.
func (r *Fig12Result) ArtifactTable() *artifact.Table {
	t := r.table()
	var scheme []string
	var mu, sm, perf []float64
	for si, s := range Fig10Schemes {
		for mi, m := range r.MuCycles {
			for gi, g := range r.SigmaMu {
				scheme = append(scheme, schemeKey(s))
				mu = append(mu, m)
				sm = append(sm, g)
				perf = append(perf, r.Perf[si][mi][gi])
			}
		}
	}
	t.Columns = []artifact.Column{
		artifact.Strings("scheme", scheme),
		artifact.Floats("mu", artifact.UnitCycles, mu),
		artifact.Floats("sigma_over_mu", artifact.UnitFraction, sm),
		artifact.Floats("perf", artifact.UnitRatio, perf),
	}
	t.Attrs = map[string]string{
		"cliff_observed": strconv.FormatBool(r.CliffObserved()),
	}
	return t
}

// ---- fig12pts ----

// ArtifactTable builds the design-point table.
func (r *Fig12PointsResult) ArtifactTable() *artifact.Table {
	t := r.table()
	n := len(r.Points)
	label := make([]string, n)
	mu := make([]float64, n)
	sm := make([]float64, n)
	dead := make([]float64, n)
	perf := make([][]float64, len(Fig10Schemes))
	for si := range perf {
		perf[si] = make([]float64, n)
	}
	for i, pt := range r.Points {
		label[i] = pt.Point.Label
		mu[i] = pt.MuCycles
		sm[i] = pt.SigmaMu
		dead[i] = pt.DeadFrac
		for si := range Fig10Schemes {
			perf[si][i] = pt.Perf[si]
		}
	}
	t.Columns = []artifact.Column{
		artifact.Strings("point", label),
		artifact.Floats("mu", artifact.UnitCycles, mu),
		artifact.Floats("sigma_over_mu", artifact.UnitFraction, sm),
		artifact.Floats("dead_frac", artifact.UnitFraction, dead),
	}
	for si, s := range Fig10Schemes {
		t.Columns = append(t.Columns,
			artifact.Floats("perf_"+schemeKey(s), artifact.UnitRatio, perf[si]))
	}
	return t
}

// ---- tab1 ----

// ArtifactTable builds the circuit-parameter table.
func (r *Table1Result) ArtifactTable() *artifact.Table {
	t := r.table()
	n := len(r.Rows)
	node := make([]string, n)
	area := make([]float64, n)
	ww := make([]float64, n)
	wt := make([]float64, n)
	ox := make([]float64, n)
	fr := make([]float64, n)
	for i, row := range r.Rows {
		node[i] = row.Node
		area[i] = row.CellAreaUM2
		ww[i] = row.WireWidthUM
		wt[i] = row.WireThickUM
		ox[i] = row.OxideNM
		fr[i] = row.FreqGHz
	}
	t.Columns = []artifact.Column{
		artifact.Strings("node", node),
		artifact.Floats("cell_area", artifact.UnitSquareMicrometers, area),
		artifact.Floats("wire_width", artifact.UnitMicrometers, ww),
		artifact.Floats("wire_thickness", artifact.UnitMicrometers, wt),
		artifact.Floats("oxide", artifact.UnitNanometers, ox),
		artifact.Floats("frequency", artifact.UnitGigahertz, fr),
	}
	return t
}

// ---- tab2 ----

// ArtifactTable builds the processor-configuration table.
func (r *Table2Result) ArtifactTable() *artifact.Table {
	t := r.table()
	rows := r.rows()
	param := make([]string, len(rows))
	value := make([]string, len(rows))
	for i, row := range rows {
		param[i] = row[0]
		value[i] = row[1]
	}
	t.Columns = []artifact.Column{
		artifact.Strings("parameter", param),
		artifact.Strings("value", value),
	}
	return t
}

// ---- tab3 ----

// ArtifactTable builds the wide per-node design-comparison table.
func (r *Table3Result) ArtifactTable() *artifact.Table {
	t := r.table()
	n := len(r.Rows)
	node := make([]string, n)
	fcols := []struct {
		name string
		unit string
		get  func(*Table3Row) float64
	}{
		{"ideal_access", artifact.UnitPicoseconds, func(x *Table3Row) float64 { return x.IdealAccessPS }},
		{"ideal_bips", artifact.UnitBIPS, func(x *Table3Row) float64 { return x.IdealBIPS }},
		{"ideal_mean_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.IdealMeanDynMW }},
		{"ideal_full_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.IdealFullDynMW }},
		{"ideal_leak", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.IdealLeakMW }},
		{"sram_access", artifact.UnitPicoseconds, func(x *Table3Row) float64 { return x.SRAMAccessPS }},
		{"sram_bips", artifact.UnitBIPS, func(x *Table3Row) float64 { return x.SRAMBIPS }},
		{"sram_mean_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.SRAMMeanDynMW }},
		{"sram_full_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.SRAMFullDynMW }},
		{"sram_leak", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.SRAMLeakMW }},
		{"td_retention", artifact.UnitNanoseconds, func(x *Table3Row) float64 { return x.TDRetentionNS }},
		{"td_bips", artifact.UnitBIPS, func(x *Table3Row) float64 { return x.TDBIPS }},
		{"td_mean_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.TDMeanDynMW }},
		{"td_full_dyn", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.TDFullDynMW }},
		{"td_leak", artifact.UnitMilliwatts, func(x *Table3Row) float64 { return x.TDLeakMW }},
	}
	t.Columns = []artifact.Column{artifact.Strings("node", node)}
	for _, fc := range fcols {
		vals := make([]float64, n)
		for i := range r.Rows {
			node[i] = r.Rows[i].Node
			vals[i] = fc.get(&r.Rows[i])
		}
		t.Columns = append(t.Columns, artifact.Floats(fc.name, fc.unit, vals))
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("power_saving_32nm", artifact.UnitFraction, r.PowerSavingFrac),
	}
	return t
}

// ---- sec4.1 ----

// ArtifactTable builds the metrics-only §4.1 artifact.
func (r *GlobalRefreshResult) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Metrics = []artifact.Metric{
		artifact.Met("retention", artifact.UnitNanoseconds, r.RetentionNS),
		artifact.Met("refresh_pass", artifact.UnitNanoseconds, r.PassNS),
		artifact.Met("bandwidth_share", artifact.UnitFraction, r.BandwidthFrac),
		artifact.Met("normalized_perf", artifact.UnitRatio, r.NormalizedPerf),
		artifact.Met("global_passes", artifact.UnitCount, float64(r.GlobalPasses)),
	}
	return t
}

// ---- dvfs ----

// ArtifactTable builds the long-form (chip, scheme, freq_scale, perf,
// dead_frac) table.
func (r *DVFSResult) ArtifactTable() *artifact.Table {
	t := r.table()
	var chip, scheme []string
	var scale, perf, dead []float64
	for ci, name := range dvfsChipNames {
		for si, s := range DVFSSchemes {
			for li, lvl := range r.Levels {
				chip = append(chip, name)
				scheme = append(scheme, schemeKey(s))
				scale = append(scale, lvl)
				perf = append(perf, r.Perf[ci][si][li])
				dead = append(dead, r.DeadFrac[ci][li])
			}
		}
	}
	t.Columns = []artifact.Column{
		artifact.Strings("chip", chip),
		artifact.Strings("scheme", scheme),
		artifact.Floats("freq_scale", artifact.UnitRatio, scale),
		artifact.Floats("perf", artifact.UnitRatio, perf),
		artifact.Floats("dead_frac", artifact.UnitFraction, dead),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("counter_step", artifact.UnitCycles, float64(r.CounterStep)),
		artifact.Met("good_chip", artifact.UnitCount, float64(r.ChipIdx[0])),
		artifact.Met("median_chip", artifact.UnitCount, float64(r.ChipIdx[1])),
		artifact.Met("bad_chip", artifact.UnitCount, float64(r.ChipIdx[2])),
	}
	t.Attrs = map[string]string{"backend": r.Backend}
	return t
}

// ---- sttyield ----

// ArtifactTable builds the long-form (config, hi_ways, dead_ceiling,
// yield) table with the per-config population summaries as extra
// columns.
func (r *STTYieldResult) ArtifactTable() *artifact.Table {
	t := r.table()
	var config []string
	var hiWays []int64
	var ceiling, yield, meanDead, meanAlive []float64
	for ci, name := range r.Configs {
		for ti, th := range r.Thresholds {
			config = append(config, name)
			hiWays = append(hiWays, int64(r.HiWays[ci]))
			ceiling = append(ceiling, th)
			yield = append(yield, r.Yield[ci][ti])
			meanDead = append(meanDead, r.MeanDeadFrac[ci])
			meanAlive = append(meanAlive, r.MeanAliveNS[ci])
		}
	}
	t.Columns = []artifact.Column{
		artifact.Strings("config", config),
		artifact.Ints("hi_ways", artifact.UnitCount, hiWays),
		artifact.Floats("dead_ceiling", artifact.UnitFraction, ceiling),
		artifact.Floats("yield", artifact.UnitFraction, yield),
		artifact.Floats("mean_dead_frac", artifact.UnitFraction, meanDead),
		artifact.Floats("mean_alive", artifact.UnitNanoseconds, meanAlive),
	}
	t.Attrs = map[string]string{"backend": r.Backend}
	return t
}

// ---- yield ----

// ArtifactTable builds the yield-curve table.
func (r *YieldResult) ArtifactTable() *artifact.Table {
	t := r.table()
	t.Columns = []artifact.Column{
		artifact.Floats("target_perf", artifact.UnitRatio, r.Thresholds),
		artifact.Floats("sixt_1x", artifact.UnitFraction, r.SixT1X),
		artifact.Floats("sixt_2x", artifact.UnitFraction, r.SixT2X),
		artifact.Floats("global_3t1d", artifact.UnitFraction, r.Global3T1D),
		artifact.Floats("rsp_fifo", artifact.UnitFraction, r.RSPFIFO),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("discard_rate", artifact.UnitFraction, r.DiscardRate),
	}
	return t
}

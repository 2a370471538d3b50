package experiments

import (
	"math"

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

// newTable starts experiment id's Table: the identity fields from its
// registry Spec, so titles and kinds have a single source of truth,
// and the run's provenance. Params is immutable during builds —
// multi-node sweeps (Table 3, the Fig. 12 design points) derive
// per-node copies with WithTech — so provenance can be read at any
// time, concurrently with any build.
func (p *Params) newTable(id string) *artifact.Table {
	sp, ok := Lookup(id)
	if !ok {
		panic("experiments: no registry spec for " + id)
	}
	return &artifact.Table{ID: id, Title: sp.Title, Kind: sp.Kind, Prov: artifact.Provenance{
		SchemaVersion: artifact.SchemaVersion,
		ParamsDigest:  Digest(p),
		Seed:          p.Seed,
		Tech:          p.Tech.Name,
	}}
}

// header is embedded in Fig8Result and Fig10Result, the two results
// that keep typed fields: it holds the column-free Table newTable
// stamped at build time and gives them their artifact.Artifact ID.
type header struct{ head *artifact.Table }

// ArtifactID implements artifact.Artifact.
func (h header) ArtifactID() string { return h.head.ID }

// table returns a copy of the stamped Table for ArtifactTable to fill.
func (h header) table() *artifact.Table {
	t := *h.head
	return &t
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

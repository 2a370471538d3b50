package experiments

import (
	"fmt"

	"tdcache/internal/circuit"
	"tdcache/internal/cpu"
)

// Table1Row is one technology node's circuit parameters, copied out of
// circuit.Tech into plain fields.
type Table1Row struct {
	Node                                           string
	CellAreaUM2, WireWidthUM, WireThickUM, OxideNM float64
	FreqGHz                                        float64
}

// Table1Result reproduces Table 1: the circuit-simulation parameters
// per technology node (configuration, not a measurement — included so
// the harness covers every paper artifact, with the same provenance
// stamping as the measured experiments).
type Table1Result struct {
	// Rows are the per-node parameter rows, in circuit.Nodes order.
	Rows []Table1Row
	result
}

// Table1 captures the circuit parameters of every technology node.
func Table1(p *Params) *Table1Result {
	r := &Table1Result{result: p.newResult("tab1")}
	for _, t := range circuit.Nodes {
		r.Rows = append(r.Rows, Table1Row{
			Node:        t.Name,
			CellAreaUM2: t.CellAreaUM2,
			WireWidthUM: t.WireWidthUM,
			WireThickUM: t.WireThickUM,
			OxideNM:     t.OxideNM,
			FreqGHz:     t.FreqGHz,
		})
	}
	return r
}

// Table2Result reproduces Table 2: the baseline processor
// configuration the architecture simulations run on.
type Table2Result struct {
	// Cfg and L2 are the pipeline and L2 configurations in force.
	Cfg cpu.Config
	L2  cpu.L2Config
	result
}

// Table2 captures the baseline processor configuration.
func Table2(p *Params) *Table2Result {
	return &Table2Result{Cfg: cpu.DefaultConfig(), L2: cpu.DefaultL2(), result: p.newResult("tab2")}
}

// rows returns the parameter/value pairs in table order.
func (r *Table2Result) rows() [][2]string {
	return [][2]string{
		{"Issue width", fmt.Sprintf("%d instructions", r.Cfg.IssueWidth)},
		{"Issue queues", fmt.Sprintf("%d-entry INT, %d-entry FP", r.Cfg.IntIQ, r.Cfg.FpIQ)},
		{"Load queue", fmt.Sprintf("%d entries", r.Cfg.LoadQ)},
		{"Store queue", fmt.Sprintf("%d entries", r.Cfg.StoreQ)},
		{"Reorder buffer", fmt.Sprintf("%d-entry", r.Cfg.ROBSize)},
		{"I-cache, D-cache", "64KB, 4-way set associative"},
		{"Functional units", fmt.Sprintf("%d INT, %d FP", r.Cfg.IntFUs, r.Cfg.FpFUs)},
		{"L2 cache", fmt.Sprintf("%dMB %d-way", r.L2.SizeKB/1024, r.L2.Ways)},
		{"Branch predictor", "21264 tournament predictor"},
	}
}

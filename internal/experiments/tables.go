package experiments

import (
	"fmt"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/cpu"
)

// Table1 reproduces Table 1: the circuit-simulation parameters of every
// technology node, in circuit.Nodes order (configuration, not a
// measurement — included so the harness covers every paper artifact,
// with the same provenance stamping as the measured experiments).
func Table1(p *Params) *artifact.Table {
	n := len(circuit.Nodes)
	node := make([]string, n)
	area := make([]float64, n)
	ww := make([]float64, n)
	wt := make([]float64, n)
	ox := make([]float64, n)
	fr := make([]float64, n)
	for i, tech := range circuit.Nodes {
		node[i] = tech.Name
		area[i] = tech.CellAreaUM2
		ww[i] = tech.WireWidthUM
		wt[i] = tech.WireThickUM
		ox[i] = tech.OxideNM
		fr[i] = tech.FreqGHz
	}
	t := p.newTable("tab1")
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

// Table2 reproduces Table 2: the baseline processor configuration the
// architecture simulations run on, as parameter/value strings.
func Table2(p *Params) *artifact.Table {
	cfg, l2 := cpu.DefaultConfig(), cpu.DefaultL2()
	rows := [][2]string{
		{"Issue width", fmt.Sprintf("%d instructions", cfg.IssueWidth)},
		{"Issue queues", fmt.Sprintf("%d-entry INT, %d-entry FP", cfg.IntIQ, cfg.FpIQ)},
		{"Load queue", fmt.Sprintf("%d entries", cfg.LoadQ)},
		{"Store queue", fmt.Sprintf("%d entries", cfg.StoreQ)},
		{"Reorder buffer", fmt.Sprintf("%d-entry", cfg.ROBSize)},
		{"I-cache, D-cache", "64KB, 4-way set associative"},
		{"Functional units", fmt.Sprintf("%d INT, %d FP", cfg.IntFUs, cfg.FpFUs)},
		{"L2 cache", fmt.Sprintf("%dMB %d-way", l2.SizeKB/1024, l2.Ways)},
		{"Branch predictor", "21264 tournament predictor"},
	}
	param := make([]string, len(rows))
	value := make([]string, len(rows))
	for i, row := range rows {
		param[i] = row[0]
		value[i] = row[1]
	}
	t := p.newTable("tab2")
	t.Columns = []artifact.Column{
		artifact.Strings("parameter", param),
		artifact.Strings("value", value),
	}
	return t
}

package experiments

import (
	"fmt"
	"io"

	"tdcache/internal/artifact"
)

// Spec declaratively describes one registered experiment: its stable
// ID (the paper's artifact numbering), human-readable title, artifact
// kind, and the builder that runs it. Specs replaces the old
// map[string]Runner registry so consumers (CLI, HTTP server, docs) get
// typed artifacts and stable metadata instead of opaque printers.
type Spec struct {
	// ID is the registry key (fig1, fig6a, tab3, sec4.1, ...).
	ID string
	// Title is the artifact's display title.
	Title string
	// Kind classifies the artifact.
	Kind artifact.Kind
	// Run executes the experiment and returns its artifact.
	Run func(p *Params) artifact.Artifact
}

// Specs lists every experiment in the paper's presentation order —
// figures, then tables, then in-text sections, then extensions. The
// order is part of the public contract: `-experiment all` and the
// serving API list experiments exactly in this sequence.
var Specs = []Spec{
	{"fig1", "Cache references vs. cycles since line fill (CDF)", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig1(p) }},
	{"fig4", "3T1D access time vs. time since write", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig4(p) }},
	{"fig6a", "6T cache normalized frequency/performance distribution", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig6a(p) }},
	{"fig6b", "3T1D cache under typical variation, global refresh", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig6b(p) }},
	{"fig7", "Cache leakage power distribution vs. golden 6T", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig7(p) }},
	{"fig8", "Line retention distribution for good/median/bad chips", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig8(p) }},
	{"fig9", "Normalized performance of retention schemes", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig9(p) }},
	{"fig10", "Performance and dynamic power across the severe population", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig10(p) }},
	{"fig11", "Performance vs. associativity", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig11(p) }},
	{"fig12", "Performance over retention µ and σ/µ", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig12(p) }},
	{"fig12pts", "Fig. 12 design points on the µ-σ/µ surface", artifact.KindFigure,
		func(p *Params) artifact.Artifact { return Fig12PointsRun(p) }},
	{"tab1", "Circuit simulation parameters", artifact.KindTable,
		func(p *Params) artifact.Artifact { return Table1(p) }},
	{"tab2", "Baseline processor configuration", artifact.KindTable,
		func(p *Params) artifact.Artifact { return Table2(p) }},
	{"tab3", "Cache designs across technology nodes", artifact.KindTable,
		func(p *Params) artifact.Artifact { return Table3(p) }},
	{"sec4.1", "Global refresh without process variation", artifact.KindSection,
		func(p *Params) artifact.Artifact { return GlobalRefreshNoVariation(p) }},
	{"yield", "Yield curves under severe variation", artifact.KindExtension,
		func(p *Params) artifact.Artifact { return Yield(p) }},
	{"dvfs", "STT-RAM DVFS sweep: frequency scale vs. retention deadline", artifact.KindExtension,
		func(p *Params) artifact.Artifact { return DVFS(p) }},
	{"sttyield", "STT-RAM retention-class yield under severe variation", artifact.KindExtension,
		func(p *Params) artifact.Artifact { return STTYield(p) }},
}

// Lookup finds a spec by ID.
func Lookup(id string) (Spec, bool) {
	for _, sp := range Specs {
		if sp.ID == id {
			return sp, true
		}
	}
	return Spec{}, false
}

// Names returns the experiment IDs in Specs (presentation) order.
func Names() []string {
	out := make([]string, len(Specs))
	for i, sp := range Specs {
		out[i] = sp.ID
	}
	return out
}

// Build runs one experiment by ID and returns its artifact.
func Build(id string, p *Params) (artifact.Artifact, error) {
	sp, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Names())
	}
	return sp.Run(p), nil
}

// Run executes one experiment by ID and writes its text form, or all
// of them (in Specs order, each under a "===== id =====" line) for
// "all". It returns the first build, encode or write error.
func Run(id string, p *Params, w io.Writer) error {
	if id != "all" {
		a, err := Build(id, p)
		if err != nil {
			return err
		}
		if err := artifact.EncodeText(w, a); err != nil {
			return fmt.Errorf("experiments: printing %s: %w", id, err)
		}
		return nil
	}
	for _, sp := range Specs {
		_, err := fmt.Fprintf(w, "===== %s =====\n", sp.ID)
		if err == nil {
			err = artifact.EncodeText(w, sp.Run(p))
		}
		if err == nil {
			_, err = fmt.Fprintln(w)
		}
		if err != nil {
			return fmt.Errorf("experiments: printing %s: %w", sp.ID, err)
		}
	}
	return nil
}

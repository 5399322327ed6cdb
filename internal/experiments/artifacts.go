package experiments

import "repro/internal/sweep"

// Artifacts is the paper's evaluation, one row per figure, table or
// section, in the order pbstables prints them. pbstables, the root
// BenchmarkArtifact and TestQuickExperiments run rows of it through Run,
// so adding an artifact means adding a row with its grids and render
// function.
var Artifacts = []Artifact{
	{ID: "fig1", Title: "Figure 1: misprediction breakdown", Grids: figure1Grids, Render: render(Figure1)},
	{ID: "table1", Title: "Table I: predication/CFD applicability", Render: render(TableI)},
	{ID: "table2", Title: "Table II: benchmark characteristics", Grids: tableIIGrids, Render: render(TableII), Paper: []Quantity{
		{"min-instructions-B", 1.3, Bound},
		{"max-instructions-B", 17, Bound},
	}},
	{ID: "fig6", Title: "Figure 6: MPKI reduction", Grids: ipcGrids(4), Render: render(Figure6), Paper: []Quantity{
		{"avg-tourn-MPKI-red-%", 29.9, Mean},
		{"avg-tage-MPKI-red-%", 44.8, Mean},
		{"max-tourn-MPKI-red-%", 99, Max},
		{"max-tage-MPKI-red-%", 99, Max},
	}},
	{ID: "fig7", Title: "Figure 7: normalized IPC, 4-wide", Grids: ipcGrids(4), Render: render(Figure7), Paper: []Quantity{
		{"avg-tage-IPC-gain-%", 6.7, Mean},
		{"max-tage-IPC-gain-%", 17, Max},
		{"avg-tourn-IPC-gain-%", 9, Mean},
		{"max-tourn-IPC-gain-%", 26, Max},
	}},
	{ID: "fig8", Title: "Figure 8: normalized IPC, 8-wide", Grids: ipcGrids(8), Render: render(Figure8), Paper: []Quantity{
		{"avg-tage-IPC-gain-%", 10.8, Mean},
		{"max-tage-IPC-gain-%", 19, Max},
		{"avg-tourn-IPC-gain-%", 13.8, Mean},
		{"max-tourn-IPC-gain-%", 25, Max},
	}},
	{ID: "fig9", Title: "Figure 9: predictor interference", Grids: figure9Grids, Render: render(Figure9), Paper: []Quantity{
		{"max-reg-MPKI-incr-%", 5.8, Max},
	}},
	{ID: "table3", Title: "Table III: randomness battery", Grids: tableIIIGrids, Render: render(TableIII), Paper: []Quantity{
		{"battery-tests", 114, Exact},
	}},
	{ID: "accuracy", Title: "Section VII-D: output accuracy", Grids: accuracyGrids, Render: render(Accuracy), Paper: []Quantity{
		{"photon-image-RMS-%", 3.9, Mean},
		{"genetic-orig-success", 0.2, Mean},
		{"genetic-orig-success-lo", 0.18, Bound},
		{"genetic-orig-success-hi", 0.22, Bound},
		{"genetic-pbs-success", 0.206, Mean},
		{"genetic-pbs-success-lo", 0.18, Bound},
		{"genetic-pbs-success-hi", 0.23, Bound},
	}},
	{ID: "cost", Title: "Section V-C2: hardware cost", Render: render(HardwareCost), Paper: []Quantity{
		{"total-bytes", 193, Exact},
	}},
	{ID: "baselines", Title: "Section IV: PBS vs predication/CFD", Grids: baselineGrids, Render: render(BaselineComparison)},
}

// Artifact is one figure, table or section of the paper's evaluation.
type Artifact struct {
	ID    string // pbstables -only and BenchmarkArtifact/<ID>
	Title string
	// Grids declares the points the artifact reads; nil for an artifact
	// that simulates nothing. Run sets each grid's Scale.
	Grids func(Options) []sweep.Grid
	// Render builds the dataset from the results of the artifact's own
	// points, so its lookups never see another artifact's points.
	Render func(Options, sweep.Results) (Dataset, error)
	Paper  []Quantity // the values the paper reports, as the text renders them
}

// Dataset is what an artifact renders: its text, and the measured value
// of each of the artifact's paper quantities, keyed by the quantity's
// name.
type Dataset interface {
	String() string
	Measured() map[string]float64
}

// Quantity is one value the paper reports for an artifact. Its name is
// also the key of the measured value and the unit of the benchmark
// metric that reports it.
type Quantity struct {
	Name  string
	Value float64
	Kind  Kind
}

// Kind says what a paper value summarizes.
type Kind int

const (
	Mean  Kind = iota // an average over benchmarks or seeds
	Max               // a maximum over benchmarks or seeds
	Bound             // one end of a range or confidence interval
	Exact             // a count fixed by the paper's configuration
)

// render adapts an experiment to Artifact.Render.
func render[D Dataset](f func(Options, sweep.Results) (D, error)) func(Options, sweep.Results) (Dataset, error) {
	return func(opt Options, res sweep.Results) (Dataset, error) {
		d, err := f(opt, res)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// paper returns the paper's value of quantity name of artifact id.
func paper(id, name string) float64 {
	for _, a := range Artifacts {
		for _, q := range a.Paper {
			if a.ID == id && q.Name == name {
				return q.Value
			}
		}
	}
	panic("experiments: artifact " + id + " has no paper quantity " + name)
}

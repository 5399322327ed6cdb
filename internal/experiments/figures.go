package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// bothPredictors is the predictor pair most figures sweep.
var bothPredictors = []sim.PredictorKind{sim.PredTournament, sim.PredTAGESCL}

// Fig1Row is one benchmark of Figure 1: the share of dynamic conditional
// branches that are probabilistic, and the share of mispredictions they
// cause under each predictor.
type Fig1Row struct {
	Workload        string
	ProbBranchShare float64 // % of dynamic conditional branches
	TournMissShare  float64 // % of tournament mispredictions
	TageMissShare   float64 // % of TAGE-SC-L mispredictions
}

// Fig1 is the Figure 1 dataset.
type Fig1 struct{ Rows []Fig1Row }

// figure1Grids is Figure 1's baseline runs: both predictors, PBS off.
func figure1Grids(opt Options) []sweep.Grid {
	return []sweep.Grid{{Predictors: bothPredictors, Seeds: []uint64{opt.seed0()}}}
}

// Figure1 reproduces Figure 1: probabilistic branches are a minority of
// dynamic branches but a disproportionate share of mispredictions.
func Figure1(opt Options, res sweep.Results) (*Fig1, error) {
	names := workloads.Names()
	rows := make([]Fig1Row, len(names))
	for i, name := range names {
		tour, err := res.Get(sweep.Key{Workload: name, Predictor: sim.PredTournament, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		tage, err := res.Get(sweep.Key{Workload: name, Predictor: sim.PredTAGESCL, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		mt, mg := tour.Timing, tage.Timing
		rows[i] = Fig1Row{
			Workload:        name,
			ProbBranchShare: 100 * float64(mt.ProbBranches) / float64(mt.CondBranches),
			TournMissShare:  100 * float64(mt.MispredictsProb) / float64(mt.Mispredicts),
			TageMissShare:   100 * float64(mg.MispredictsProb) / float64(mg.Mispredicts),
		}
	}
	return &Fig1{Rows: rows}, nil
}

func (f *Fig1) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: probabilistic vs regular branches (baseline, no PBS)\n")
	header(&sb, "benchmark", "%dyn branches", "%tourn misses", "%tage misses")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-14s%-14.1f%-14.1f%-14.1f\n",
			r.Workload, r.ProbBranchShare, r.TournMissShare, r.TageMissShare)
	}
	return sb.String()
}

// Measured reports nothing: the paper's Figure 1 gives no number.
func (f *Fig1) Measured() map[string]float64 { return nil }

// Fig6Row is one benchmark of Figure 6.
type Fig6Row struct {
	Workload       string
	TournBaseMPKI  float64
	TournPBSMPKI   float64
	TournReduction float64 // %
	TageBaseMPKI   float64
	TagePBSMPKI    float64
	TageReduction  float64 // %
}

// Fig6 is the Figure 6 dataset.
type Fig6 struct {
	Rows                    []Fig6Row
	AvgTournRed, AvgTageRed float64
	MaxTournRed, MaxTageRed float64
}

// Figure6 reproduces Figure 6: MPKI reduction through PBS for both
// predictors.
func Figure6(opt Options, res sweep.Results) (*Fig6, error) {
	names := workloads.Names()
	rows := make([]Fig6Row, len(names))
	for i, name := range names {
		row := Fig6Row{Workload: name}
		for _, pred := range bothPredictors {
			base, err := res.Get(sweep.Key{Workload: name, Predictor: pred, Seed: opt.seed0()})
			if err != nil {
				return nil, err
			}
			pbs, err := res.Get(sweep.Key{Workload: name, Predictor: pred, PBS: true, Seed: opt.seed0()})
			if err != nil {
				return nil, err
			}
			b, p := base.Timing.MPKI(), pbs.Timing.MPKI()
			red := 0.0
			if b > 0 {
				red = 100 * (b - p) / b
			}
			if pred == sim.PredTournament {
				row.TournBaseMPKI, row.TournPBSMPKI, row.TournReduction = b, p, red
			} else {
				row.TageBaseMPKI, row.TagePBSMPKI, row.TageReduction = b, p, red
			}
		}
		rows[i] = row
	}
	f := &Fig6{Rows: rows}
	for _, r := range rows {
		f.AvgTournRed += float64(r.TournReduction / float64(len(rows)))
		f.AvgTageRed += float64(r.TageReduction / float64(len(rows)))
		f.MaxTournRed = max(f.MaxTournRed, r.TournReduction)
		f.MaxTageRed = max(f.MaxTageRed, r.TageReduction)
	}
	return f, nil
}

func (f *Fig6) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: MPKI reduction through PBS\n")
	header(&sb, "benchmark", "tourn base", "tourn PBS", "tourn red%", "tage base", "tage PBS", "tage red%")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-14s%-14.2f%-14.2f%-14.1f%-14.2f%-14.2f%-14.1f\n",
			r.Workload, r.TournBaseMPKI, r.TournPBSMPKI, r.TournReduction,
			r.TageBaseMPKI, r.TagePBSMPKI, r.TageReduction)
	}
	fmt.Fprintf(&sb, "average reduction: tournament %.1f%% (paper: %.1f%%), TAGE-SC-L %.1f%% (paper: %.1f%%)\n",
		f.AvgTournRed, paper("fig6", "avg-tourn-MPKI-red-%"), f.AvgTageRed, paper("fig6", "avg-tage-MPKI-red-%"))
	fmt.Fprintf(&sb, "max reduction:     tournament %.1f%% (paper: up to %g%%), TAGE-SC-L %.1f%% (paper: up to %g%%)\n",
		f.MaxTournRed, paper("fig6", "max-tourn-MPKI-red-%"), f.MaxTageRed, paper("fig6", "max-tage-MPKI-red-%"))
	return sb.String()
}

func (f *Fig6) Measured() map[string]float64 {
	return map[string]float64{
		"avg-tourn-MPKI-red-%": f.AvgTournRed,
		"avg-tage-MPKI-red-%":  f.AvgTageRed,
		"max-tourn-MPKI-red-%": f.MaxTournRed,
		"max-tage-MPKI-red-%":  f.MaxTageRed,
	}
}

// FigIPCRow is one benchmark of Figures 7/8: IPC normalized to the
// tournament baseline.
type FigIPCRow struct {
	Workload     string
	Tournament   float64 // 1.0 by construction
	Tage         float64
	TournamentPB float64
	TagePB       float64
}

// FigIPC is the Figures 7/8 dataset.
type FigIPC struct {
	Wide        int
	Rows        []FigIPCRow
	AvgTournPBS float64 // geomean gain of tournament+PBS over tournament, %
	AvgTagePBS  float64 // geomean gain of TAGE+PBS over TAGE, %
	MaxTournPBS float64
	MaxTagePBS  float64
}

// ipcGrids returns the grid of the four configurations of Figures 7/8 —
// both predictors, PBS off and on — on the given core width. Figure 6
// reads the MPKI of the 4-wide runs, Figure 7 their IPC.
func ipcGrids(wide int) func(Options) []sweep.Grid {
	return func(opt Options) []sweep.Grid {
		return []sweep.Grid{{
			Predictors: bothPredictors,
			PBS:        []bool{false, true},
			Widths:     []int{wide},
			Seeds:      []uint64{opt.seed0()},
		}}
	}
}

// figureIPC renders Figures 7/8 on the given core width.
func figureIPC(opt Options, res sweep.Results, wide int) (*FigIPC, error) {
	names := workloads.Names()
	rows := make([]FigIPCRow, len(names))
	for i, name := range names {
		var ipc [2][2]float64 // by bothPredictors index, then PBS off/on
		for p, pred := range bothPredictors {
			for pbs := range 2 {
				r, err := res.Get(sweep.Key{Workload: name, Predictor: pred, PBS: pbs == 1, Width: wide, Seed: opt.seed0()})
				if err != nil {
					return nil, err
				}
				ipc[p][pbs] = r.Timing.IPC()
			}
		}
		tour := ipc[0][0]
		rows[i] = FigIPCRow{
			Workload:     name,
			Tournament:   1,
			Tage:         ipc[1][0] / tour,
			TournamentPB: ipc[0][1] / tour,
			TagePB:       ipc[1][1] / tour,
		}
	}
	f := &FigIPC{Wide: wide, Rows: rows}
	var tGains, gGains []float64
	for _, r := range rows {
		tg := r.TournamentPB / r.Tournament
		gg := r.TagePB / r.Tage
		tGains = append(tGains, tg)
		gGains = append(gGains, gg)
		f.MaxTournPBS = max(f.MaxTournPBS, 100*(tg-1))
		f.MaxTagePBS = max(f.MaxTagePBS, 100*(gg-1))
	}
	f.AvgTournPBS = 100 * (geomean(tGains) - 1)
	f.AvgTagePBS = 100 * (geomean(gGains) - 1)
	return f, nil
}

// Figure7 reproduces Figure 7: normalized IPC on the 4-wide core.
func Figure7(opt Options, res sweep.Results) (*FigIPC, error) { return figureIPC(opt, res, 4) }

// Figure8 reproduces Figure 8: normalized IPC on the 8-wide core.
func Figure8(opt Options, res sweep.Results) (*FigIPC, error) { return figureIPC(opt, res, 8) }

func (f *FigIPC) String() string {
	var sb strings.Builder
	id := map[int]string{4: "fig7", 8: "fig8"}[f.Wide]
	fmt.Fprintf(&sb, "Figure %d: normalized IPC, %d-wide core (paper avg/max gains: %g%%/%g%% TAGE, %g%%/%g%% tournament)\n",
		map[int]int{4: 7, 8: 8}[f.Wide], f.Wide,
		paper(id, "avg-tage-IPC-gain-%"), paper(id, "max-tage-IPC-gain-%"),
		paper(id, "avg-tourn-IPC-gain-%"), paper(id, "max-tourn-IPC-gain-%"))
	header(&sb, "benchmark", "tournament", "tage-sc-l", "tourn+PBS", "tage+PBS")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-14s%-14.3f%-14.3f%-14.3f%-14.3f\n",
			r.Workload, r.Tournament, r.Tage, r.TournamentPB, r.TagePB)
	}
	fmt.Fprintf(&sb, "PBS gain: tournament avg %.1f%% max %.1f%%; TAGE-SC-L avg %.1f%% max %.1f%%\n",
		f.AvgTournPBS, f.MaxTournPBS, f.AvgTagePBS, f.MaxTagePBS)
	return sb.String()
}

func (f *FigIPC) Measured() map[string]float64 {
	return map[string]float64{
		"avg-tage-IPC-gain-%":  f.AvgTagePBS,
		"max-tage-IPC-gain-%":  f.MaxTagePBS,
		"avg-tourn-IPC-gain-%": f.AvgTournPBS,
		"max-tourn-IPC-gain-%": f.MaxTournPBS,
	}
}

// Fig9Row is one benchmark of Figure 9.
type Fig9Row struct {
	Workload    string
	MaxIncrease float64 // % increase of regular-branch MPKI due to interference
	AvgIncrease float64
}

// Fig9 is the Figure 9 dataset.
type Fig9 struct{ Rows []Fig9Row }

// figure9Grids is Figure 9's runs: the tournament predictor with and
// without probabilistic branches filtered from it, at every seed.
func figure9Grids(opt Options) []sweep.Grid {
	return []sweep.Grid{{
		Predictors: []sim.PredictorKind{sim.PredTournament},
		Seeds:      opt.Seeds,
		FilterProb: []bool{false, true},
	}}
}

// Figure9 reproduces Figure 9: negative interference of probabilistic
// branches in the tournament predictor, measured by comparing
// regular-branch MPKI with and without probabilistic branches accessing
// the predictor, maximum over the seeds (the paper reports the maximum
// across 7 seeds).
func Figure9(opt Options, res sweep.Results) (*Fig9, error) {
	names := workloads.Names()
	rows := make([]Fig9Row, len(names))
	for i, name := range names {
		row := Fig9Row{Workload: name}
		for _, seed := range opt.Seeds {
			withProb, err := res.Get(sweep.Key{Workload: name, Predictor: sim.PredTournament, Seed: seed})
			if err != nil {
				return nil, err
			}
			filtered, err := res.Get(sweep.Key{Workload: name, Predictor: sim.PredTournament, Seed: seed, FilterProb: true})
			if err != nil {
				return nil, err
			}
			inc := 0.0
			a := withProb.Timing.MPKIReg()
			b := filtered.Timing.MPKIReg()
			if b > 0 {
				inc = 100 * (a - b) / b
			}
			row.MaxIncrease = max(row.MaxIncrease, inc)
			row.AvgIncrease += inc / float64(len(opt.Seeds))
		}
		rows[i] = row
	}
	return &Fig9{Rows: rows}, nil
}

func (f *Fig9) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: regular-branch MPKI increase from probabilistic-branch interference\n")
	fmt.Fprintf(&sb, "(tournament predictor; max over seeds; paper: up to %g%%, couple %% average)\n",
		paper("fig9", "max-reg-MPKI-incr-%"))
	header(&sb, "benchmark", "max incr %", "avg incr %")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-14s%-14.2f%-14.2f\n", r.Workload, r.MaxIncrease, r.AvgIncrease)
	}
	return sb.String()
}

func (f *Fig9) Measured() map[string]float64 {
	most := 0.0
	for _, r := range f.Rows {
		most = max(most, r.MaxIncrease)
	}
	return map[string]float64{"max-reg-MPKI-incr-%": most}
}

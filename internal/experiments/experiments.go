// Package experiments regenerates the tables and figures of the paper's
// evaluation (§VI-§VII). Artifacts lists them in print order, each with
// its run function and the values the paper reports.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/sweep"
)

// Options control experiment scale and statistics.
type Options struct {
	// Scale multiplies every workload's baseline iteration count.
	Scale int
	// Seeds are the RNG seeds used by multi-seed experiments (the paper
	// uses 7 for randomness/interference and 8 for Genetic).
	Seeds []uint64
}

// DefaultOptions returns the experiment defaults.
func DefaultOptions() Options {
	return Options{
		Scale: 1,
		Seeds: []uint64{11, 23, 37, 41, 53, 67, 79},
	}
}

func (o Options) seed0() uint64 {
	if len(o.Seeds) > 0 {
		return o.Seeds[0]
	}
	return 1
}

// engine is the package-wide sweep engine. One program cache and one
// result memo are shared by every figure and table, so experiments that
// revisit a configuration simulate it once: Figure 1's baseline runs are
// a subset of Figure 6's grid, and Figure 7 equals Figure 6 on the
// default 4-wide core. Results are deterministic functions of their grid
// point, so the memo never changes any number.
var engine = sweep.NewEngine()

// ResetEngine discards the package's cached programs and memoized
// results, so the next experiment simulates everything from scratch.
// Benchmarks call it per iteration to time experiments cold; ordinary
// callers never need it — memoized results are deterministic, sharing
// them changes no number. Not safe concurrently with a running
// experiment.
func ResetEngine() { engine = sweep.NewEngine() }

// runGrids expands the grids at the options' scale and executes all their
// points on one shared worker pool, stopping at the first error. Points
// that appear in several grids (Accuracy's seed-0 study overlaps its
// Genetic all-seeds study) run once; lookups see every copy.
func runGrids(opt Options, grids ...sweep.Grid) (sweep.Results, error) {
	var pts []sweep.Point
	seen := make(map[sweep.Point]bool)
	for _, g := range grids {
		// Every experiment grid sets Seeds from its Options; empty means
		// the caller asked for no seeds, not sweep's default seed — run
		// nothing rather than simulate points no result loop will read.
		if len(g.Seeds) == 0 {
			continue
		}
		g.Scale = opt.Scale
		ps, err := g.Points()
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
	}
	return engine.RunPoints(context.Background(), pts, 0)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// header renders a fixed-width table header row.
func header(sb *strings.Builder, cols ...string) {
	for _, c := range cols {
		fmt.Fprintf(sb, "%-14s", c)
	}
	sb.WriteByte('\n')
	for range cols {
		fmt.Fprintf(sb, "%-14s", strings.Repeat("-", 12))
	}
	sb.WriteByte('\n')
}

// Package experiments regenerates the tables and figures of the paper's
// evaluation (§VI-§VII). Artifacts lists them in print order, each with
// the grids it simulates, its render function and the values the paper
// reports; Run simulates any selection of them as one batch.
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

// Run simulates the union of the artifacts' points at the options'
// scale as one batch on a fresh engine, then renders each artifact, in
// the order given, from its own points' results. A point that several
// artifacts declare runs once, and points that share a stream run in one
// stream group whichever artifact declared them: Figure 8's 8-wide runs
// follow Figure 7's 4-wide runs of the same streams. Results are
// deterministic functions of their points, so no number depends on which
// artifacts run together.
func Run(opt Options, arts []Artifact) ([]Dataset, error) {
	pts, own, err := plan(opt, arts)
	if err != nil {
		return nil, err
	}
	res, err := (&sweep.Engine{}).RunPoints(context.Background(), pts, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Dataset, len(arts))
	for i, a := range arts {
		mine := make(sweep.Results, len(own[i]))
		for k, j := range own[i] {
			mine[k] = res[j]
		}
		if out[i], err = a.Render(opt, mine); err != nil {
			return nil, fmt.Errorf("%s: %w", a.ID, err)
		}
	}
	return out, nil
}

// plan expands the artifacts' grids at the options' scale into the
// distinct points of their union, and lists each artifact's points as
// indices into it.
func plan(opt Options, arts []Artifact) (pts []sweep.Point, own [][]int, err error) {
	at := make(map[sweep.Point]int)
	own = make([][]int, len(arts))
	for i, a := range arts {
		if a.Grids == nil {
			continue
		}
		for _, g := range a.Grids(opt) {
			// Every experiment grid sets Seeds from its Options; empty
			// means the caller asked for no seeds, not sweep's default
			// seed — run nothing rather than simulate points no render
			// reads.
			if len(g.Seeds) == 0 {
				continue
			}
			g.Scale = opt.Scale
			ps, err := g.Points()
			if err != nil {
				return nil, nil, err
			}
			for _, p := range ps {
				j, ok := at[p]
				if !ok {
					j = len(pts)
					at[p] = j
					pts = append(pts, p)
				}
				own[i] = append(own[i], j)
			}
		}
	}
	return pts, own, nil
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

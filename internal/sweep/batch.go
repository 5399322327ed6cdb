package sweep

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Batch is the layout of one sweep: its normalized points, the
// single-seed runs they expand into, and the position of every output
// row in Results.Records order. A plain point is one run and one row;
// an aggregate point is one run and one row per seed, in seed-set
// order, followed by its aggregate row. Run results arrive through Put
// in any order; the batch merges a sharded point's aggregate when its
// last shard lands, so any row's record is available as soon as its
// inputs are. The in-process engine and the sweep service both lay out
// and merge their batches here, which is what keeps a served job's rows
// byte-identical to a local run's. A Batch is not safe for concurrent
// use.
type Batch struct {
	points  []Point
	runs    []Run
	first   []int // per point: index of its first run
	rowBase []int // per point: position of its first row
	rows    int
	sims    []*sim.Result // per run, once Put
	aggs    []*Aggregate  // per point, once a sharded point's last shard is Put
	done    [2]int        // backs the rows Put returns
}

// Run is one executable single-seed run of a batch: a plain point, or
// one seed shard of an aggregate point.
type Run struct {
	Point Point
	// Row is the position of the run's own output row.
	Row int
	agg int // position of the aggregate row a shard feeds; -1 for a plain point
}

// NewBatch normalizes the points and lays them out. An aggregate point
// must leave Seed zero and name a well-formed seed set.
func NewBatch(pts []Point) (*Batch, error) {
	n := 0
	for _, p := range pts {
		n += max(p.Key.Seeds.Count(), 1)
	}
	b := &Batch{
		runs:    make([]Run, 0, n),
		points:  make([]Point, len(pts)),
		first:   make([]int, len(pts)),
		rowBase: make([]int, len(pts)),
		aggs:    make([]*Aggregate, len(pts)),
	}
	for i, p := range pts {
		p = p.normalize()
		b.points[i] = p
		b.first[i] = len(b.runs)
		b.rowBase[i] = b.rows
		if !p.Sharded() {
			b.runs = append(b.runs, Run{Point: p, Row: b.rows, agg: -1})
			b.rows++
			continue
		}
		if p.Seed != 0 {
			return nil, fmt.Errorf("sweep: aggregate point %s sets both Seed and Seeds", p)
		}
		seeds := p.Key.Seeds.Seeds()
		if len(seeds) == 0 {
			return nil, fmt.Errorf("sweep: aggregate point %s has a malformed seed set %q", p, p.Key.Seeds)
		}
		agg := b.rows + len(seeds) // the aggregate row follows the shard rows
		for k, seed := range seeds {
			b.runs = append(b.runs, Run{Point: p.Shard(seed), Row: b.rows + k, agg: agg})
		}
		b.rows = agg + 1
	}
	b.sims = make([]*sim.Result, len(b.runs))
	return b, nil
}

// Points returns the batch's normalized points, in submission order.
func (b *Batch) Points() []Point { return b.points }

// Runs returns the batch's single-seed runs in dispatch order: point
// order, seed-set order within an aggregate point. A run's index here
// is its identity in Put and Needs.
func (b *Batch) Runs() []Run { return b.runs }

// Groups partitions the batch's runs into stream groups: runs whose
// points share a StreamPoint, and so one emulated instruction stream.
// Each group lists its runs in dispatch order, and the groups follow
// the dispatch order of their first runs.
func (b *Batch) Groups() [][]int {
	var groups [][]int
	idx := make(map[Point]int)
	for r, run := range b.runs {
		sp := run.Point.StreamPoint()
		g, ok := idx[sp]
		if !ok {
			g = len(groups)
			idx[sp] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// Rows returns the number of output rows.
func (b *Batch) Rows() int { return b.rows }

// inputs returns the point owning row pos and the runs [lo, hi) the
// row's record is built from: the row's own run, or every shard of the
// point for an aggregate row. The owner is found by binary search over
// the points' first rows.
func (b *Batch) inputs(pos int) (i, lo, hi int) {
	i = sort.Search(len(b.rowBase), func(i int) bool { return b.rowBase[i] > pos }) - 1
	lo, hi = b.first[i], len(b.runs)
	if i+1 < len(b.first) {
		hi = b.first[i+1]
	}
	if off := pos - b.rowBase[i]; off < hi-lo {
		return i, lo + off, lo + off + 1
	}
	return i, lo, hi
}

// Put stores run r's result and returns the rows it completes, in
// position order: the run's own row, then its point's aggregate row
// when r was the last missing shard. The returned slice is the batch's
// own and holds only until the next Put.
func (b *Batch) Put(r int, res *sim.Result) []int {
	b.sims[r] = res
	run := b.runs[r]
	b.done[0] = run.Row
	done := b.done[:1]
	if run.agg < 0 {
		return done
	}
	i, lo, hi := b.inputs(run.agg)
	if slices.Contains(b.sims[lo:hi], nil) {
		return done
	}
	seeds := make([]uint64, hi-lo)
	for k := range seeds {
		seeds[k] = b.runs[lo+k].Point.Seed
	}
	b.aggs[i] = NewAggregate(seeds, slices.Clone(b.sims[lo:hi]))
	b.done[1] = run.agg
	return b.done[:2]
}

// Needs returns the runs whose results row pos still lacks, in
// dispatch order: the row's own run for a run row, the missing shards
// for an aggregate row, nothing once the row is complete.
func (b *Batch) Needs(pos int) []int {
	_, lo, hi := b.inputs(pos)
	var need []int
	for r := lo; r < hi; r++ {
		if b.sims[r] == nil {
			need = append(need, r)
		}
	}
	return need
}

// Record returns the record at row position pos, and false while the
// row still needs runs (see Needs).
func (b *Batch) Record(pos int) (Record, bool) {
	i, lo, _ := b.inputs(pos)
	switch {
	case b.runs[lo].Row == pos && b.sims[lo] != nil:
		return Result{Point: b.runs[lo].Point, Sim: b.sims[lo]}.Record(), true
	case b.runs[lo].Row != pos && b.aggs[i] != nil:
		return Result{Point: b.points[i], Agg: b.aggs[i]}.Record(), true
	}
	return Record{}, false
}

// Results returns the completed points in point order: every point of
// a finished batch, only those whose runs all completed (fully merged
// aggregates only) of an aborted one.
func (b *Batch) Results() Results {
	out := make(Results, 0, len(b.points))
	for i, p := range b.points {
		switch {
		case b.aggs[i] != nil:
			out = append(out, Result{Point: p, Agg: b.aggs[i]})
		case !p.Sharded() && b.sims[b.first[i]] != nil:
			out = append(out, Result{Point: p, Sim: b.sims[b.first[i]]})
		}
	}
	return out
}

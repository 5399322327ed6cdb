package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// SeriesPoint is one interval sample of a live simulation: the paper's
// headline metrics over the preceding interval plus their running
// cumulative values. The interval columns expose the warm-up dynamics
// the aggregate figures average away — the PBS unit bootstrapping its
// Prob-BTB entries, steering kicking in, and the misprediction rate
// collapsing.
type SeriesPoint struct {
	Instructions uint64 // cumulative retired instructions at the sample

	IPC      float64 // interval IPC
	MPKI     float64 // interval total MPKI
	MPKIProb float64 // interval probabilistic-branch MPKI
	MPKIReg  float64 // interval regular-branch MPKI
	Steered  float64 // interval fraction of probabilistic branches steered

	CumIPC  float64 // cumulative IPC up to the sample
	CumMPKI float64 // cumulative MPKI up to the sample
}

// Series is an IPC/misprediction time-series for one configuration: a
// scenario class the one-shot harness could not express, produced by
// stepping a sim.Session one interval at a time.
type Series struct {
	Workload string
	PBS      bool
	Interval uint64
	Points   []SeriesPoint
}

// TimeSeries runs one workload and samples the machine every interval
// retired instructions, stepping it with Session.RunFor and reading
// Session.Snapshot after each step, and returns the interval and
// cumulative metric series. Every full interval ends exactly on a
// multiple of interval; a trailing partial interval is sampled too.
func TimeSeries(workload string, pbs bool, interval uint64, opt Options) (*Series, error) {
	return timeSeriesSeed(workload, pbs, interval, opt.Scale, opt.seed0())
}

// timeSeriesSeed is TimeSeries for one explicit seed — the per-seed
// shard of TimeSeriesCI.
func timeSeriesSeed(workload string, pbs bool, interval uint64, scale int, seed uint64) (*Series, error) {
	if interval == 0 {
		return nil, fmt.Errorf("experiments: TimeSeries interval must be positive")
	}
	s, err := sim.New(workload,
		sim.WithScale(scale),
		sim.WithSeed(seed),
		sim.WithPBS(pbs),
	)
	if err != nil {
		return nil, err
	}
	out := &Series{Workload: workload, PBS: pbs, Interval: interval}
	// A full-timing session times every retired instruction, so the
	// timing counters alone describe each interval. RunFor stops exactly
	// on each boundary; the step on which the program halts closes the
	// series, with a partial interval unless it halted on a boundary.
	last := s.Snapshot().Timing
	for {
		done, err := s.RunFor(interval)
		if err != nil {
			return nil, err
		}
		total := s.Snapshot().Timing
		delta := total.Delta(last)
		out.Points = append(out.Points, SeriesPoint{
			Instructions: total.Instructions,
			IPC:          delta.IPC(),
			MPKI:         delta.MPKI(),
			MPKIProb:     delta.MPKIProb(),
			MPKIReg:      delta.MPKIReg(),
			Steered:      delta.SteerRate(),
			CumIPC:       total.IPC(),
			CumMPKI:      total.MPKI(),
		})
		last = total
		if done {
			return out, nil
		}
	}
}

// String renders the series as a fixed-width table.
func (s *Series) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Time-series: %s, PBS %v, sampled every %d instructions\n", s.Workload, s.PBS, s.Interval)
	header(&sb, "instrs", "IPC", "MPKI", "prob", "reg", "steered", "cum IPC", "cum MPKI")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%-14d%-14.3f%-14.2f%-14.2f%-14.2f%-14.1f%-14.3f%-14.2f\n",
			p.Instructions, p.IPC, p.MPKI, p.MPKIProb, p.MPKIReg, 100*p.Steered, p.CumIPC, p.CumMPKI)
	}
	return sb.String()
}

// SeriesCIPoint is one interval sample of a multi-seed time-series:
// mean and 95% CI across seeds of the interval metrics at the same
// sample index.
type SeriesCIPoint struct {
	Instructions stats.Summary // cumulative retired instructions at the sample
	IPC          stats.Summary // interval IPC
	MPKI         stats.Summary // interval total MPKI
	MPKIProb     stats.Summary // interval probabilistic-branch MPKI
	Steered      stats.Summary // interval steered fraction
}

// SeriesCI is the multi-seed warm-up study: per-seed series run as
// parallel shards (one session per seed, spread over a bounded pool the
// way the sweep engine shards aggregate points) and merged index-wise
// into mean/95%-CI bands. It answers whether the warm-up dynamic —
// steering ramping up, probabilistic MPKI collapsing — is a property of
// the machine or an artifact of one seed.
type SeriesCI struct {
	Workload string
	PBS      bool
	Interval uint64
	Seeds    []uint64
	PerSeed  []*Series // in Seeds order
	// Points holds the merged bands, truncated to the shortest per-seed
	// series (seeds retire slightly different instruction counts, so the
	// trailing partial samples may not align).
	Points []SeriesCIPoint
}

// TimeSeriesCI runs TimeSeries once per seed in opt.Seeds, concurrently
// (bounded by opt.Parallel, default GOMAXPROCS), and merges the per-seed
// series into confidence bands. The per-seed series are byte-identical
// to sequential TimeSeries runs of the same seeds.
func TimeSeriesCI(workload string, pbs bool, interval uint64, opt Options) (*SeriesCI, error) {
	if len(opt.Seeds) == 0 {
		return nil, fmt.Errorf("experiments: TimeSeriesCI needs at least one seed")
	}
	parallel := opt.Parallel
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(opt.Seeds) {
		parallel = len(opt.Seeds)
	}
	out := &SeriesCI{
		Workload: workload,
		PBS:      pbs,
		Interval: interval,
		Seeds:    opt.Seeds,
		PerSeed:  make([]*Series, len(opt.Seeds)),
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	aborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	jobs := make(chan int)
	for range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if aborted() {
					continue // drain without simulating, like the sweep engine
				}
				s, err := timeSeriesSeed(workload, pbs, interval, opt.Scale, opt.Seeds[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				out.PerSeed[i] = s
			}
		}()
	}
	for i := range opt.Seeds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	n := len(out.PerSeed[0].Points)
	for _, s := range out.PerSeed {
		n = min(n, len(s.Points))
	}
	out.Points = make([]SeriesCIPoint, n)
	for i := range n {
		collect := func(f func(SeriesPoint) float64) stats.Summary {
			xs := make([]float64, len(out.PerSeed))
			for j, s := range out.PerSeed {
				xs[j] = f(s.Points[i])
			}
			return stats.Summarize95(xs)
		}
		out.Points[i] = SeriesCIPoint{
			Instructions: collect(func(p SeriesPoint) float64 { return float64(p.Instructions) }),
			IPC:          collect(func(p SeriesPoint) float64 { return p.IPC }),
			MPKI:         collect(func(p SeriesPoint) float64 { return p.MPKI }),
			MPKIProb:     collect(func(p SeriesPoint) float64 { return p.MPKIProb }),
			Steered:      collect(func(p SeriesPoint) float64 { return p.Steered }),
		}
	}
	return out, nil
}

// String renders the confidence bands as a fixed-width table.
func (s *SeriesCI) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Time-series over %d seeds: %s, PBS %v, sampled every %d instructions (mean [95%% CI])\n",
		len(s.Seeds), s.Workload, s.PBS, s.Interval)
	header(&sb, "instrs", "IPC", "IPC CI", "MPKI", "MPKI CI", "prob MPKI", "steered %")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%-14.0f%-14.3f%-14s%-14.2f%-14s%-14.2f%-14.1f\n",
			p.Instructions.Mean, p.IPC.Mean, p.IPC.CI.String(),
			p.MPKI.Mean, p.MPKI.CI.String(), p.MPKIProb.Mean, 100*p.Steered.Mean)
	}
	return sb.String()
}

// Command perfbench is the repository's benchmark. One invocation runs
// one named workload as a closed loop for a fixed wall-clock budget,
// checks the simulator's outputs, and prints its metrics as a JSON
// object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload full-mix -seed 1 -seconds 20 -trace 0
//
// run from the repository root (BENCHMARK.json names the metrics and
// their units). With -trace 0 the metrics are the end-to-end ones,
// measured with no instrumentation; with -trace 1 a separate traced run
// reports the per-layer metrics, timing every layer from outside through
// its public functions and interfaces. NOTES.md maps each layer metric
// to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often a run repeats its set-up: setup_s is the
// median, so one cold page-fault storm does not set the figure.
const setupRepeats = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	measured map[string]bool // metrics the workload measured; the rest read zero
}

// spec is the part of BENCHMARK.json the program reads: the metric
// names and units it must emit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workload is one benchmark workload. setup builds what a run needs —
// programs, sessions — and is repeated and timed; run and trace use the
// products of the last setup.
type workload interface {
	setup() (setupTimes, error)
	// run executes the closed loop for budget with no instrumentation
	// and returns the figures it measured.
	run(budget time.Duration, c *runLog) (figures, error)
	// trace executes the traced run and returns per-layer figures.
	trace(budget time.Duration, c *runLog, tr *Tracer) (map[string]float64, error)
}

// setupTimes splits one setup into its layers, in seconds: program
// assembly (workloads), predecoding (plan) and session construction
// (sim.New).
type setupTimes struct {
	Build      float64 `json:"build_s"`
	Predecode  float64 `json:"predecode_s"`
	NewSession float64 `json:"new_session_s"`
}

func (s setupTimes) total() float64 { return s.Build + s.Predecode + s.NewSession }

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "sessions":
		return composite{&fullMix{seed: seed}, &sampledLong{seed: seed}}, nil
	case "grid":
		return composite{&sweepGrid{seed: seed}, &serveLoopback{seed: seed}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// composite is a workload made of parts run one after another, each for
// an equal share of the budget. Its set-up is every part's set-up, and a
// pass over it is a pass over each part. In the traced run, a metric two
// parts measure is the first part's.
type composite []workload

func (w composite) setup() (setupTimes, error) {
	var st setupTimes
	for _, p := range w {
		s, err := p.setup()
		if err != nil {
			return st, err
		}
		st.Build += s.Build
		st.Predecode += s.Predecode
		st.NewSession += s.NewSession
	}
	return st, nil
}

func (w composite) run(budget time.Duration, c *runLog) (figures, error) {
	var f figures
	for _, p := range w {
		g, err := p.run(budget/time.Duration(len(w)), c)
		if err != nil {
			return f, err
		}
		f = f.add(g)
	}
	return f, nil
}

func (w composite) trace(budget time.Duration, c *runLog, tr *Tracer) (map[string]float64, error) {
	values := map[string]float64{}
	for _, p := range w {
		v, err := p.trace(budget/time.Duration(len(w)), c, tr)
		if err != nil {
			return nil, err
		}
		for k, x := range v {
			if _, ok := values[k]; !ok {
				values[k] = x
			}
		}
	}
	return values, nil
}

// runLog counts attempted and failed points (sessions or grid points),
// reporting each failure on standard error, and keeps the wall and CPU
// time of every closed-loop item and of every reference-kernel run for
// the result file.
type runLog struct {
	attempted, failed int
	samples           map[string][]float64
	cpuSamples        map[string][]float64
	ref               []float64
	between           func() uint64 // called by the closed loop between items; returns heap bytes it allocated
}

func (c *runLog) fail(points int, format string, args ...any) {
	c.failed += points
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run: sessions or grid")
	seed := flag.Uint64("seed", 1, "machine RNG seed base")
	seconds := flag.Int("seconds", 20, "measured wall-clock budget in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for span and result files")
	flag.Parse()
	res, err := benchmark(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *specPath, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// benchmark runs one workload and assembles the result line, writing
// the result (and, traced, the spans) with the host description under
// outDir.
func benchmark(name string, seed uint64, budget time.Duration, traced bool, specPath, outDir string) (*result, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if !traced {
		// One simulation at a time on one processor: with a second one,
		// the collector and the runtime's helpers run beside the simulation
		// on the CPU other tenants of a shared host load most, and the
		// figures follow their load (see NOTES.md). The traced run keeps
		// every processor for the asynchronous trace ring.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	// The run starts from a first, untimed set-up; the timed ones follow.
	if _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	st := newSetupTimer(w, budget)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	c := &runLog{samples: map[string][]float64{}, cpuSamples: map[string][]float64{}, between: st.between}
	var (
		values map[string]float64
		setups []setupTimes
	)
	want := sp.EndToEnd
	tr := NewTracer(2000)
	if traced {
		want = sp.PerLayer
		values, err = w.trace(budget, c, tr)
		if err == nil {
			setups, err = st.finish()
		}
		if err == nil {
			values["workloads.build_ms"] = medianOf(setups, func(s setupTimes) float64 { return s.Build }) * 1e3
			values["plan.predecode_ms"] = medianOf(setups, func(s setupTimes) float64 { return s.Predecode }) * 1e3
			values["sim.new_ms"] = medianOf(setups, func(s setupTimes) float64 { return s.NewSession }) * 1e3
		}
	} else {
		var f figures
		if f, err = w.run(budget, c); err == nil {
			values, err = f.metrics()
		}
		if err == nil {
			values["peak_rss_mb"] = peakRSSMiB()
			setups, err = st.finish()
		}
		if err == nil {
			values["setup_s"] = medianOf(setups, setupTimes.total) * hostScale(c.ref)
		}
	}
	if err != nil {
		return nil, err
	}
	if c.attempted == 0 {
		return nil, errors.New("no point was attempted")
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %g", name, k, v)
		}
	}
	res := &result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}, measured: map[string]bool{}}
	res.Correct = c.failed == 0 && c.attempted > 0
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s did not measure %s", name, m.Name)
		}
		// A per-layer metric of a layer this workload does not exercise
		// reads zero (see NOTES.md for which layers each workload runs).
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		res.measured[m.Name] = ok
		delete(values, m.Name)
	}
	if len(values) > 0 {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("workload %s measured metrics BENCHMARK.json does not name: %v", name, extra)
	}
	mode := "e2e"
	if traced {
		mode = "traced"
		if err := tr.WriteFile(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	record := struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Seconds  float64              `json:"seconds"`
		Mode     string               `json:"mode"`
		Host     hostInfo             `json:"host"`
		Result   *result              `json:"result"`
		Setups   []setupTimes         `json:"setups"`
		Samples  map[string][]float64 `json:"item_seconds"`
		CPU      map[string][]float64 `json:"item_cpu_seconds"`
		Ref      []float64            `json:"ref_seconds"`
		Scale    float64              `json:"host_scale"`
	}{name, seed, budget.Seconds(), mode, describeHost(), res, setups, c.samples, c.cpuSamples, c.ref, hostScale(c.ref)}
	data, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-%s.json", name, seed, mode))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	host, err := json.Marshal(record.Host)
	if err != nil {
		return nil, err
	}
	fmt.Printf("host %s\n", host)
	return res, nil
}

// setupTimer repeats a workload's set-up setupRepeats times, spread
// through the measured run: a host's speed drifts over tens of seconds,
// and repetitions timed all at once would catch one moment of it.
type setupTimer struct {
	w      workload
	every  time.Duration
	last   time.Time
	setups []setupTimes
	err    error
}

func newSetupTimer(w workload, budget time.Duration) *setupTimer {
	return &setupTimer{w: w, every: budget / setupRepeats, last: time.Now()}
}

// between times one repetition when the last is at least every ago, and
// returns the heap bytes it allocated; the closed loop calls it between
// items and leaves those bytes out of its own.
func (s *setupTimer) between() uint64 {
	if len(s.setups) == setupRepeats || s.err != nil || time.Since(s.last) < s.every {
		return 0
	}
	a0 := totalAlloc()
	s.once()
	return totalAlloc() - a0
}

func (s *setupTimer) once() {
	// Each set-up starts from a collected heap, so one repetition does
	// not pay for collecting the garbage of the one before it.
	runtime.GC()
	st, err := s.w.setup()
	s.setups, s.err, s.last = append(s.setups, st), err, time.Now()
	if err != nil {
		s.err = fmt.Errorf("setup: %w", err)
	}
}

// finish times the repetitions the run left and returns them all.
func (s *setupTimer) finish() ([]setupTimes, error) {
	for s.err == nil && len(s.setups) < setupRepeats {
		s.once()
	}
	return s.setups, s.err
}

// medianOf returns the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

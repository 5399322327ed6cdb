// Command pbsweep runs a declarative grid of simulations — workloads ×
// predictors × PBS on/off × core widths × seeds × variants — through the
// batch engine (internal/sweep) and emits machine-readable per-point
// results. It is also the front end of the sweep service (internal/serve):
// `pbsweep serve` runs the job server, `pbsweep worker` attaches a
// pull-based executor, and `pbsweep -server URL ...` submits the grid to
// a server instead of simulating in-process — with byte-identical output.
//
// Usage:
//
//	pbsweep                                   # all workloads × both predictors × PBS on/off, JSON on stdout
//	pbsweep -workloads PI,DOP -seeds 11,23,37 -widths 4,8 -format csv -o results.csv
//	pbsweep -workloads Genetic -seeds 11,23,37,41 -shard-seeds   # one aggregate point, per-seed shards + mean/CI row
//	pbsweep -variants plain,predicated,cfd    # Table I baselines (inapplicable combos skipped)
//	pbsweep -spec grid.json                   # grid from a JSON specification file
//	pbsweep -list
//
//	pbsweep serve -addr :9571 -store /var/tmp/pbs-store     # job server with a persistent result store
//	pbsweep worker -server http://host:9571                 # attach GOMAXPROCS single-point executors
//	pbsweep -server http://host:9571 -workloads PI -seeds 1,2,3   # client mode: same grid, same bytes
//
// A specification file is the JSON encoding of the sweep.Grid struct:
//
//	{"workloads": ["PI"], "predictors": ["tage-sc-l"], "pbs": [false, true], "seeds": [11, 23]}
//
// SIGINT/SIGTERM interrupt a batch or client run cleanly: completed
// records are flushed to the output before exiting 130, so a long sweep
// cut short still yields its finished points. The server traps the same
// signals, stops handing out work, and drains outstanding leases before
// exiting (a second signal aborts the drain).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/branch"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		}
	}
	runBatch(os.Args[1:])
}

// runServe is `pbsweep serve`: the sweep job server.
func runServe(args []string) {
	fs := flag.NewFlagSet("pbsweep serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":9571", "listen address")
		storeDir = fs.String("store", "", "content-addressed result store directory (empty = in-memory only; results vanish with the process)")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second, "worker lease deadline; a worker silent for this long has its stream group re-leased")
		memCap   = fs.Int64("mem-cache-mb", 0, "cap the store's in-memory layer at this many MiB, evicting LRU entries to the backing directory (0 = unbounded; requires -store)")
		noJrnl   = fs.Bool("no-journal", false, "disable the durable job journal even with -store (open jobs then die with the process)")
		quiet    = fs.Bool("quiet", false, "suppress per-event protocol logging on stderr")
	)
	fs.Parse(args)
	store, err := serve.OpenStore(*storeDir)
	if err != nil {
		fail(err)
	}
	if *memCap > 0 {
		if *storeDir == "" {
			fail(errors.New("serve: -mem-cache-mb needs -store (a memory-only store cannot evict its only copy)"))
		}
		store.MaxMemBytes = *memCap << 20
	}
	srv := serve.NewServer(store)
	srv.LeaseTTL = *leaseTTL
	if !*quiet {
		srv.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	// With a persistent store the job journal rides alongside it: open
	// jobs survive server restarts, and reconnecting clients resume
	// their streams exactly where they left off.
	if *storeDir != "" && !*noJrnl {
		if err := srv.AttachJournal(filepath.Join(*storeDir, "journal.ndjson")); err != nil {
			fail(err)
		}
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	where := *storeDir
	if where == "" {
		where = "memory"
	}
	fmt.Fprintf(os.Stderr, "pbsweep: serving on %s (store: %s)\n", *addr, where)
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()

	// Drain: no new leases; wait for in-flight groups to complete or
	// expire. A second signal gives up on the stragglers.
	fmt.Fprintln(os.Stderr, "pbsweep: draining leases (interrupt again to abort)")
	dctx, dstop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer dstop()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "pbsweep: drain aborted with leases outstanding")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	hs.Shutdown(sctx)
}

// runWorker is `pbsweep worker`: N pull-based single-point executors
// sharing one program cache.
func runWorker(args []string) {
	fs := flag.NewFlagSet("pbsweep worker", flag.ExitOnError)
	var (
		server   = fs.String("server", "", "job server base URL, e.g. http://host:9571 (required)")
		parallel = fs.Int("parallel", 0, "concurrent points (0 = GOMAXPROCS)")
		name     = fs.String("name", "", "worker name prefix in server logs (default: hostname)")
		poll     = fs.Duration("poll", 0, "idle re-poll interval floor (0 = server's suggestion)")
		budget   = fs.Duration("retry-budget", 2*time.Minute, "how long requests retry through an unreachable server before the worker exits")
	)
	fs.Parse(args)
	if *server == "" {
		fail(errors.New("worker: -server is required"))
	}
	n := *parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "worker"
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progs := sweep.NewProgramCache()
	var wg sync.WaitGroup
	workers := make([]*serve.Worker, 0, n)
	errs := make(chan error, n)
	for i := range n {
		w := &serve.Worker{
			Server:      *server,
			Name:        fmt.Sprintf("%s/%d", *name, i),
			Programs:    progs,
			Poll:        *poll,
			RetryBudget: *budget,
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				errs <- err
			}
		}()
	}
	// First signal: graceful drain — each worker finishes or checkpoints
	// and releases its current stream group, then exits. Second signal:
	// hard abort (leases expire server-side; the groups re-lease with
	// whatever progress their renewals shipped).
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "pbsweep: draining workers (interrupt again to abort)")
		for _, w := range workers {
			w.Drain()
		}
		<-sigc
		cancel()
	}()
	fmt.Fprintf(os.Stderr, "pbsweep: %d worker(s) attached to %s\n", n, *server)
	wg.Wait()
	select {
	case err := <-errs:
		fail(err)
	default:
	}
}

// runBatch is the classic pbsweep invocation: expand a grid and run it —
// in-process through the batch engine, or on a job server with -server.
func runBatch(args []string) {
	fs := flag.NewFlagSet("pbsweep", flag.ExitOnError)
	var (
		spec      = fs.String("spec", "", "JSON grid specification file (overrides the grid flags; -parallel still applies)")
		workload  = fs.String("workloads", "all", "comma-separated benchmark names, or \"all\"")
		predictor = fs.String("predictors", "tage-sc-l,tournament", "comma-separated predictors: "+strings.Join(branch.Names(), " | "))
		pbs       = fs.String("pbs", "both", "PBS hardware: on | off | both")
		widths    = fs.String("widths", "4", "comma-separated core widths (4 and/or 8)")
		seeds     = fs.String("seeds", "1", "comma-separated machine RNG seeds")
		variants  = fs.String("variants", "plain", "comma-separated program variants: plain | predicated | cfd (inapplicable combinations are skipped)")
		shard     = fs.Bool("shard-seeds", false, "collapse the seed axis: run each coordinate as one aggregate point whose per-seed shards fan across the worker pool; output gains a mean/95%-CI aggregate row per point alongside the per-seed rows")
		warm      = fs.Uint64("warm-prefix", 0, "fast-forward each point over its first N instructions with the timing model idle, once per group of points that differ only in timing axes; timing metrics then cover the post-prefix suffix (0 = run every point cold)")
		sampleWin = fs.Uint64("sample-window", 0, "SMARTS sampled timing: measured-window length in instructions (needs -sample-period)")
		samplePer = fs.Uint64("sample-period", 0, "SMARTS sampled timing: measure one window every N retired instructions per point, fast-forwarding the gaps; rows then carry the IPC/MPKI estimate and its 95% CI (0 = full timing)")
		sampleWrm = fs.Uint64("sample-warmup", 0, "SMARTS sampled timing: detailed-warming instructions ahead of each window")
		sampleFW  = fs.Bool("sample-func-warm", false, "SMARTS sampled timing: keep caches and predictor functionally warm across fast-forward gaps")
		scale     = fs.Int("scale", 1, "workload iteration scale")
		parallel  = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		server    = fs.String("server", "", "submit the grid to a sweep job server at this base URL instead of simulating in-process")
		format    = fs.String("format", "json", "output format: json | csv")
		out       = fs.String("o", "", "output file (default stdout)")
		progress  = fs.Bool("progress", true, "report progress on stderr")
		list      = fs.Bool("list", false, "list benchmarks and predictors, then exit")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Parse(args)

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	profStop = stopProf // fail() finishes the profiles on error exits too
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-12s category %d, %d probabilistic branch(es): %s\n",
				w.Name, w.Category, w.ProbBranches, w.Description)
		}
		fmt.Printf("predictors:  %s\n", strings.Join(branch.Names(), ", "))
		fmt.Println("variants:    plain, predicated, cfd")
		return
	}

	if *format != "json" && *format != "csv" {
		fail(fmt.Errorf("unknown format %q (want json or csv)", *format))
	}
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "pbsweep: -scale must be at least 1")
		exit(2)
	}
	grid, err := gridFromFlags(*spec, *workload, *predictor, *pbs, *widths, *seeds, *variants, *scale, *parallel, *warm, *shard)
	if err != nil {
		fail(err)
	}
	// The sampling flags follow the -warm-prefix convention: set on the
	// command line they win over a spec's sample_* fields; their zero
	// defaults leave the spec's schedule alone.
	if *samplePer != 0 {
		grid.SamplePeriod = *samplePer
	}
	if *sampleWin != 0 {
		grid.SampleWindow = *sampleWin
	}
	if *sampleWrm != 0 {
		grid.SampleWarmup = *sampleWrm
	}
	if *sampleFW {
		grid.SampleFuncWarm = true
	}

	// A signal cancels the run; completed records still flush below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var recs []sweep.Record
	if *server != "" {
		recs, err = collectRemote(ctx, *server, grid, *progress)
	} else {
		recs, err = runLocal(ctx, grid, *progress)
	}
	interrupted := ctx.Err() != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fail(err)
	}
	if len(recs) == 0 {
		if interrupted {
			fail(fmt.Errorf("interrupted before any point completed"))
		}
		fail(fmt.Errorf("grid expanded to no runnable points (every workload × variant combination is inapplicable)"))
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "pbsweep: interrupted; flushing %d completed record(s)\n", len(recs))
	}
	if err := writeRecords(recs, *format, *out); err != nil {
		fail(err)
	}
	if interrupted {
		exit(130)
	}
}

// runLocal runs the grid on the in-process batch engine. On ctx
// cancellation the engine returns the points completed before the
// abort, in point order, alongside context.Canceled.
func runLocal(ctx context.Context, grid sweep.Grid, progress bool) ([]sweep.Record, error) {
	eng := &sweep.Engine{}
	if progress {
		eng.OnProgress = progressLine("runs")
	}
	results, err := eng.Run(ctx, grid)
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	return results.Records(), err
}

// collectRemote submits the grid to a job server and reassembles the
// streamed rows. On ctx cancellation the rows received so far come back
// in order alongside context.Canceled, exactly like the local path.
func collectRemote(ctx context.Context, server string, grid sweep.Grid, progress bool) ([]sweep.Record, error) {
	c := &serve.Client{Server: server}
	var onRow func(done, total int)
	if progress {
		onRow = progressLine("rows")
	}
	recs, err := c.Collect(ctx, grid, onRow)
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	return recs, err
}

// progressLine returns a monotonic stderr progress callback: updates
// arrive concurrently, and a stale count must never overwrite a newer
// one.
func progressLine(unit string) func(done, total int) {
	var mu sync.Mutex
	printed := 0
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done <= printed {
			return
		}
		printed = done
		fmt.Fprintf(os.Stderr, "\rpbsweep: %d/%d %s", done, total, unit)
	}
}

// writeRecords emits the records in the requested format, to stdout or
// the -o file.
func writeRecords(recs []sweep.Record, format, out string) error {
	w := os.Stdout
	var f *os.File
	if out != "" {
		var err error
		f, err = os.Create(out)
		if err != nil {
			return err
		}
		w = f
	}
	var err error
	if format == "json" {
		err = sweep.WriteRecordsJSON(w, recs)
	} else {
		err = sweep.WriteRecordsCSV(w, recs)
	}
	if err != nil {
		return err
	}
	if f != nil {
		// A failed close can mean a truncated file; report it.
		return f.Close()
	}
	return nil
}

func gridFromFlags(spec, workload, predictor, pbs, widths, seeds, variants string, scale, parallel int, warmPrefix uint64, shard bool) (sweep.Grid, error) {
	var g sweep.Grid
	if spec != "" {
		data, err := os.ReadFile(spec)
		if err != nil {
			return g, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields() // a typoed axis must not silently sweep the defaults
		if err := dec.Decode(&g); err != nil {
			return g, fmt.Errorf("%s: %w", spec, err)
		}
		if dec.More() {
			return g, fmt.Errorf("%s: trailing data after the grid object", spec)
		}
		// -parallel is an execution knob, not a grid axis: honor it even
		// with a spec file (a spec "parallel" wins unless the flag is set).
		if parallel != 0 {
			g.Parallel = parallel
		}
		// Likewise -shard-seeds only widens scheduling; a spec
		// "shard_seeds": true cannot be un-set by the flag's default.
		if shard {
			g.ShardSeeds = true
		}
		// -warm-prefix set on the command line wins over a spec
		// "warm_prefix"; the flag's zero default leaves the spec's alone.
		if warmPrefix != 0 {
			g.WarmPrefix = warmPrefix
		}
		return g, nil
	}

	if workload != "all" {
		g.Workloads = splitCSV(workload)
	}
	for _, p := range splitCSV(predictor) {
		g.Predictors = append(g.Predictors, sim.PredictorKind(p))
	}
	switch pbs {
	case "on":
		g.PBS = []bool{true}
	case "off":
		g.PBS = []bool{false}
	case "both":
		g.PBS = []bool{false, true}
	default:
		return g, fmt.Errorf("-pbs must be on, off or both (got %q)", pbs)
	}
	for _, s := range splitCSV(widths) {
		w, err := strconv.Atoi(s)
		if err != nil {
			return g, fmt.Errorf("-widths: %w", err)
		}
		g.Widths = append(g.Widths, w)
	}
	for _, s := range splitCSV(seeds) {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return g, fmt.Errorf("-seeds: %w", err)
		}
		g.Seeds = append(g.Seeds, seed)
	}
	for _, s := range splitCSV(variants) {
		v, err := workloads.VariantByName(s)
		if err != nil {
			return g, err
		}
		g.Variants = append(g.Variants, v)
	}
	g.SkipInapplicable = true
	g.Scale = scale
	g.Parallel = parallel
	g.ShardSeeds = shard
	g.WarmPrefix = warmPrefix
	return g, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// profStop finishes any active pprof profiles (idempotent; see
// prof.Start). fail and exit run it so os.Exit does not truncate
// profile files.
var profStop = func() error { return nil }

func exit(code int) {
	if perr := profStop(); perr != nil {
		fmt.Fprintln(os.Stderr, "pbsweep:", perr)
	}
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pbsweep:", err)
	exit(1)
}

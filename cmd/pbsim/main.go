// Command pbsim runs one benchmark on the simulated machine and prints
// branch and timing metrics, with and without PBS as requested. With
// -sample N it steps the live machine N retired instructions at a time
// and prints each interval's IPC, MPKI and steering (a time-series).
//
// A run can be checkpointed and resumed: -checkpoint-out saves the
// complete machine state (at -checkpoint-at instructions, or at the end
// of the run), and -resume continues from such a file with the exact
// configuration and state the checkpoint captured — an interrupted run
// resumed this way prints metrics identical to an uninterrupted one.
//
// Usage:
//
//	pbsim -workload PI -predictor tage-sc-l -pbs -seed 7 -scale 2 -wide 8
//	pbsim -workload PI -pbs -sample 500000
//	pbsim -workload PI -predictor always-taken
//	pbsim -workload PI -pbs -checkpoint-out pi.ckpt -checkpoint-at 1000000
//	pbsim -resume pi.ckpt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/branch"
	"repro/internal/pipeline"
	"repro/internal/prof"
	sample2 "repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "PI", "benchmark name (see -list)")
		predictor = flag.String("predictor", "tage-sc-l", "branch predictor: "+strings.Join(branch.Names(), " | "))
		pbs       = flag.Bool("pbs", false, "enable PBS hardware")
		seed      = flag.Uint64("seed", 1, "machine RNG seed")
		scale     = flag.Int("scale", 1, "iteration scale factor")
		wide      = flag.Int("wide", 4, "core width: 4 (168-entry ROB) or 8 (256-entry ROB)")
		filter    = flag.Bool("filter-prob", false, "exclude probabilistic branches from the predictor (Fig 9 experiment)")
		sample    = flag.Uint64("sample", 0, "print an interval snapshot every N retired instructions (0 = off)")
		sampleWin = flag.Uint64("sample-window", 0, "SMARTS sampled timing: measured-window length in instructions (needs -sample-period)")
		samplePer = flag.Uint64("sample-period", 0, "SMARTS sampled timing: measure one window every N retired instructions, fast-forwarding the gaps (0 = full timing)")
		sampleWrm = flag.Uint64("sample-warmup", 0, "SMARTS sampled timing: detailed-warming instructions ahead of each window")
		sampleFW  = flag.Bool("sample-func-warm", false, "SMARTS sampled timing: keep caches and predictor functionally warm across fast-forward gaps")
		ckptOut   = flag.String("checkpoint-out", "", "write a machine checkpoint to this file")
		ckptAt    = flag.Uint64("checkpoint-at", 0, "take the -checkpoint-out checkpoint once N instructions have retired (0 = at the end of the run)")
		resume    = flag.String("resume", "", "resume from a checkpoint file; the machine configuration comes from the checkpoint, so only sampling and output flags apply")
		list      = flag.Bool("list", false, "list benchmarks and predictors, then exit")
		dump      = flag.Bool("dump", false, "print the program disassembly and exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	profStop = stopProf // exit finishes the profiles on error exits too
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
		return
	}

	opts := []sim.Option{
		sim.WithScale(*scale),
		sim.WithSeed(*seed),
		sim.WithPredictor(sim.PredictorKind(*predictor)),
		sim.WithPBS(*pbs),
		sim.WithFilterProb(*filter),
	}
	sampleCfg := sample2.Config{Window: *sampleWin, Period: *samplePer, Warmup: *sampleWrm, FuncWarm: *sampleFW}
	if *samplePer > 0 {
		opts = append(opts, sim.WithSampledTiming(sampleCfg))
	} else if *sampleWin > 0 || *sampleWrm > 0 || *sampleFW {
		fmt.Fprintln(os.Stderr, "pbsim: -sample-window/-sample-warmup/-sample-func-warm need -sample-period")
		exit(2)
	}
	switch *wide {
	case 4:
	case 8:
		opts = append(opts, sim.WithCore(pipeline.EightWide()))
	default:
		fmt.Fprintln(os.Stderr, "pbsim: -wide must be 4 or 8")
		exit(2)
	}
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "pbsim: -scale must be at least 1")
		exit(2)
	}

	if *dump {
		w, err := workloads.ByName(*workload)
		if err != nil {
			fail(err)
		}
		prog, err := w.Build(workloads.Params{Scale: *scale}, true)
		if err != nil {
			fail(err)
		}
		fmt.Print(prog.Disassemble())
		return
	}

	if *ckptAt > 0 && *ckptOut == "" {
		fmt.Fprintln(os.Stderr, "pbsim: -checkpoint-at needs -checkpoint-out")
		exit(2)
	}

	// Display fields default to the flags; a resumed run reports the
	// checkpoint's embedded configuration instead.
	showPBS, showPred, showWide := *pbs, *predictor, *wide

	var s *sim.Session
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			fail(err)
		}
		ck, err := sim.LoadCheckpoint(data)
		if err != nil {
			fail(err)
		}
		var ropts []sim.Option
		if *samplePer > 0 {
			// The schedule is a function of the absolute retired count, so
			// the resumed run rejoins it exactly where the checkpoint left
			// off (or starts sampling there, for a full-run checkpoint).
			ropts = append(ropts, sim.WithSampledTiming(sampleCfg))
		}
		s, err = sim.Resume(ck, ropts...)
		if err != nil {
			fail(err)
		}
		cfg := ck.Config()
		showPBS = cfg.PBS
		showPred = string(cfg.Predictor)
		if showPred == "" {
			showPred = string(sim.PredTAGESCL)
		}
		showWide = 4
		if cfg.Core != nil {
			showWide = cfg.Core.Width
		}
	} else {
		s, err = sim.New(*workload, opts...)
		if err != nil {
			fail(err)
		}
	}
	if *ckptAt > 0 && *ckptAt <= s.Instructions() {
		fmt.Fprintf(os.Stderr, "pbsim: -checkpoint-at %d is not past the resumed position of %d instructions\n",
			*ckptAt, s.Instructions())
		exit(2)
	}
	if *sample > 0 {
		fmt.Printf("%12s  %7s  %7s  %7s  %7s  %8s\n",
			"instrs", "IPC", "MPKI", "prob", "reg", "steered%")
	}
	// Step to whichever comes first, the next -sample boundary or
	// -checkpoint-at; the sample intervals count from where the run
	// starts. The checkpoint is taken at -checkpoint-at, or where the
	// run ends if that comes first or -checkpoint-at is 0.
	nextSample := s.Instructions() + *sample
	last := s.Snapshot().Timing
	pendingCkpt := *ckptOut != ""
	for {
		var stop uint64 // 0: to completion
		if *sample > 0 {
			stop = nextSample
		}
		if pendingCkpt && *ckptAt > 0 && (stop == 0 || *ckptAt < stop) {
			stop = *ckptAt
		}
		var err error
		if stop == 0 {
			err = s.Run()
		} else {
			_, err = s.RunFor(stop - s.Instructions())
		}
		if err != nil {
			fail(err)
		}
		if *sample > 0 && s.Instructions() == nextSample {
			total := s.Snapshot().Timing
			d := total.Delta(last)
			fmt.Printf("%12d  %7.3f  %7.2f  %7.2f  %7.2f  %8.1f\n",
				nextSample, d.IPC(), d.MPKI(), d.MPKIProb(), d.MPKIReg(), 100*d.SteerRate())
			last = total
			nextSample += *sample
		}
		if pendingCkpt && (s.Instructions() == *ckptAt || s.Done()) {
			if err := writeCheckpoint(s, *ckptOut); err != nil {
				fail(err)
			}
			pendingCkpt = false
		}
		if s.Done() {
			break
		}
	}
	res := s.Result()

	m := res.Timing
	fmt.Printf("workload      %s (PBS %v, %s predictor, %d-wide)\n", res.Workload, showPBS, showPred, showWide)
	// A sampled run times only its detailed phases; name that share.
	timed := ""
	if res.Sampled != nil {
		timed = fmt.Sprintf(" (%d timed)", m.Instructions)
	}
	fmt.Printf("instructions  %d%s\n", res.Emu.Instructions, timed)
	fmt.Printf("cycles        %d\n", m.Cycles)
	if e := res.Sampled; e != nil {
		fmt.Printf("IPC           %.3f ± %.3f (sampled 95%% CI [%.3f, %.3f], %d windows of %d)\n",
			e.IPC.Mean, e.IPCHalfWidth(), e.IPC.CI.Lo, e.IPC.CI.Hi, e.Windows, sampleCfg.Window)
		fmt.Printf("sampled MPKI  %.2f ± %.2f\n", e.MPKI.Mean, e.MPKIHalfWidth())
		fmt.Printf("sampled run   measured %d, warmed %d, fast-forwarded %d instrs\n",
			e.InstrsMeasured, e.InstrsWarmed, e.InstrsFastForwarded)
	} else {
		fmt.Printf("IPC           %.3f\n", m.IPC())
	}
	fmt.Printf("branches      %d (%d conditional, %d probabilistic)\n", m.Branches, m.CondBranches, m.ProbBranches)
	fmt.Printf("mispredicts   %d (MPKI %.2f; prob %.2f, regular %.2f)\n",
		m.Mispredicts, m.MPKI(), m.MPKIProb(), m.MPKIReg())
	fmt.Printf("PBS           steered %d, bootstrap %d, regular %d\n", m.ProbSteered, m.ProbBoot, m.ProbRegular)
	if showPBS {
		s := res.PBSStats
		fmt.Printf("PBS unit      alloc %d, clears %d, const-violations %d, capacity-misses %d\n",
			s.Allocations, s.ContextClears, s.ConstViolations, s.CapacityMisses)
	}
	fmt.Printf("caches        L1I miss %d, L1D miss %d, L2 miss %d\n", m.L1IMisses, m.L1DMisses, m.L2Misses)
	fmt.Printf("outputs       %d values\n", len(res.Outputs))
	for i, v := range res.Outputs {
		if i >= 8 {
			fmt.Printf("  ... (%d more)\n", len(res.Outputs)-8)
			break
		}
		fmt.Printf("  out[%d] = %g\n", i, math.Float64frombits(v))
	}
}

// writeCheckpoint serializes the session's machine state to path.
func writeCheckpoint(s *sim.Session, path string) error {
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	return os.WriteFile(path, ck.Bytes(), 0o644)
}

// profStop finishes any active pprof profiles (idempotent; see
// prof.Start). exit runs it so os.Exit does not truncate profile files.
var profStop = func() error { return nil }

// exit finishes the profiles and exits with code.
func exit(code int) {
	if perr := profStop(); perr != nil {
		fmt.Fprintln(os.Stderr, "pbsim:", perr)
	}
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pbsim:", err)
	exit(1)
}

// Session: drive a live simulated machine through the sim.Session API —
// incremental stepping with RunFor, and metrics snapshots between
// steps whose differences give interval rates. Both are scenario
// classes the one-shot sim.Run cannot express: the machine is inspected
// (and could be reconfigured, checkpointed, or raced against others)
// *while it runs*, here watching the PBS unit warm up from bootstrap to
// full steering.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
)

func main() {
	// A live machine: PI with PBS hardware, built with functional options.
	s, err := sim.New("PI",
		sim.WithSeed(7),
		sim.WithPBS(true),
		sim.WithPredictor(sim.PredTAGESCL),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Incremental stepping: advance the machine in 400k-instruction
	// slices. Between slices the session is quiescent — inspect it,
	// interleave other work, or stop early; state carries over exactly.
	// The difference of two snapshots' timing counters covers just the
	// slice between them — an IPC/misprediction/steering time-series as
	// the machine runs.
	fmt.Println("interval samples (each row is one 400k-instruction window):")
	fmt.Printf("%12s  %7s  %9s  %9s\n", "instrs", "IPC", "prob MPKI", "steered%")
	const interval = 400_000
	last := s.Snapshot().Timing
	var slices uint64
	for {
		done, err := s.RunFor(interval)
		if err != nil {
			log.Fatal(err)
		}
		slices++
		// A row per full slice; the final, partial one has none.
		if t := s.Snapshot().Timing; t.Instructions == slices*interval {
			d := t.Delta(last)
			fmt.Printf("%12d  %7.3f  %9.2f  %9.1f\n",
				t.Instructions, d.IPC(), d.MPKIProb(), 100*d.SteerRate())
			last = t
		}
		if done {
			break
		}
	}

	// A closing snapshot carries the timing, emulator and PBS-unit
	// counters side by side.
	total := s.Snapshot()
	t := total.Timing
	fmt.Printf("\nran to completion in %d RunFor slices\n", slices)
	fmt.Printf("instructions  %d\n", t.Instructions)
	fmt.Printf("IPC           %.3f\n", t.IPC())
	fmt.Printf("MPKI          %.2f (prob %.2f, regular %.2f)\n", t.MPKI(), t.MPKIProb(), t.MPKIReg())
	fmt.Printf("PBS           %d/%d prob branches steered, %d Prob-BTB allocations\n",
		t.ProbSteered, t.ProbBranches, total.PBSStats.Allocations)
	fmt.Printf("outputs       %d values\n", total.Emu.Outputs)
}

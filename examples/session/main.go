// Session: drive a live simulated machine through the sim.Session API —
// incremental stepping with RunFor, interval observation with Observe,
// and metrics snapshots with deltas. Both capabilities are new
// scenario classes the one-shot sim.Run cannot express: the machine is
// inspected (and could be reconfigured, checkpointed, or raced against
// others) *while it runs*, here watching the PBS unit warm up from
// bootstrap to full steering.
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

	// Interval observation: every 400k retired instructions the callback
	// receives a Snapshot whose Delta covers just that interval — an
	// IPC/misprediction/steering time-series as the machine runs.
	fmt.Println("interval samples (each row is one 400k-instruction window):")
	fmt.Printf("%12s  %7s  %9s  %9s\n", "instrs", "IPC", "prob MPKI", "steered%")
	err = s.Observe(400_000, func(snap sim.Snapshot) {
		d := snap.Delta.Timing
		fmt.Printf("%12d  %7.3f  %9.2f  %9.1f\n",
			snap.Total.Timing.Instructions, d.IPC(), d.MPKIProb(), 100*d.SteerRate())
	})
	if err != nil {
		log.Fatal(err)
	}

	// Incremental stepping: advance the machine in 1M-instruction slices.
	// Between slices the session is quiescent — inspect it, interleave
	// other work, or stop early; state carries over exactly.
	slices := 0
	for {
		done, err := s.RunFor(1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		slices++
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

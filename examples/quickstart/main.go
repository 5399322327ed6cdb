// Quickstart: build a tiny probabilistic loop with the builder DSL, run it
// with and without PBS hardware, and compare branch behaviour. This is the
// smallest end-to-end use of the public packages: progb to write a
// program, core for the PBS unit, emu to execute, pipeline to time.
package main

import (
	"fmt"
	"log"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/progb"
	"repro/internal/rng"
)

// buildCoinCount builds: count how many of n uniform draws fall below 0.5.
// The comparison is marked probabilistic, so PBS can steer it.
func buildCoinCount(n int64) (*isa.Program, error) {
	b := progb.New("coin-count", true)
	const (
		rI, rN, rU, rHalf, rHits isa.Reg = 1, 2, 3, 4, 5
	)
	b.MovInt(rN, n)
	b.MovInt(rHits, 0)
	b.MovFloat(rHalf, 0.5)
	b.ForN(rI, rN, func() {
		b.RandU(rU)
		skip := b.AutoLabel("tails")
		// Marked probabilistic branch: skip the count when u >= 0.5.
		b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, rU, rHalf, nil, skip)
		b.AddI(rHits, rHits, 1)
		b.Label(skip)
	})
	b.Out(rHits)
	b.Halt()
	return b.Finish()
}

func main() {
	prog, err := buildCoinCount(200_000)
	if err != nil {
		log.Fatal(err)
	}

	for _, usePBS := range []bool{false, true} {
		var unit *core.Unit
		if usePBS {
			unit, err = core.NewUnit(core.DefaultConfig())
			if err != nil {
				log.Fatal(err)
			}
		}
		cpu, err := emu.New(prog, rng.New(42), unit)
		if err != nil {
			log.Fatal(err)
		}
		pipe, err := pipeline.New(pipeline.FourWide(), prog, branch.NewTAGESCL())
		if err != nil {
			log.Fatal(err)
		}
		cpu.SetTraceSink(pipe)
		if err := cpu.Run(0); err != nil {
			log.Fatal(err)
		}
		m := pipe.Metrics()
		fmt.Printf("PBS=%-5v heads=%d  IPC=%.2f  MPKI=%.2f  steered=%d/%d\n",
			usePBS, cpu.Output()[0], m.IPC(), m.MPKI(), m.ProbSteered, m.ProbBranches)
	}
}

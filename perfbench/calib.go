package main

import "time"

const (
	refTables = 4
	refSize   = 1 << 13
)

// The kernel's tables, 96 KiB, cleared at the start of every run.
var (
	refTags [refTables][refSize]uint16
	refCtrs [refTables][refSize]int8
)

// refSteps is the kernel's length: about 1.3 ms on the nominal host.
const refSteps = 100_000

// refSink keeps the kernel's result live.
var refSink uint64

// refWork is a fixed kernel that shares none of the simulator's code: a
// small tagged-table branch predictor driven by a pseudo-random branch
// stream, the same mix of dependent table lookups and unpredictable
// branches the simulator runs. Timed between closed-loop items, it
// measures how fast the host runs this kind of code at that moment.
func refWork(n int) uint64 {
	tags, ctrs := &refTags, &refCtrs
	clear(tags[:])
	clear(ctrs[:])
	x, hist := uint64(0x9e3779b97f4a7c15), uint64(0)
	var hits uint64
	for range n {
		x = x*6364136223846793005 + 1442695040888963407
		pc := x >> 51
		taken := (x>>29)&3 != 0
		pred, hit := true, -1
		for t := range refTables {
			h := hist & (1<<(8*t+8) - 1)
			i := (pc ^ h ^ h>>13) & (refSize - 1)
			if tags[t][i] == uint16(pc^h>>7) {
				hit, pred = t, ctrs[t][i] >= 0
			}
		}
		if pred == taken {
			hits++
		}
		if hit >= 0 {
			h := hist & (1<<(8*hit+8) - 1)
			i := (pc ^ h ^ h>>13) & (refSize - 1)
			if taken && ctrs[hit][i] < 3 {
				ctrs[hit][i]++
			} else if !taken && ctrs[hit][i] > -4 {
				ctrs[hit][i]--
			}
		} else {
			t := int(x>>60) % refTables
			h := hist & (1<<(8*t+8) - 1)
			i := (pc ^ h ^ h>>13) & (refSize - 1)
			tags[t][i], ctrs[t][i] = uint16(pc^h>>7), 0
		}
		hist <<= 1
		if taken {
			hist |= 1
		}
	}
	return hits
}

// refNominal is the kernel's itemQuantile time, in seconds, on the
// nominal host: an unloaded 2-vCPU Intel Xeon VM, where the benchmark was
// written. Host time × refNominal ÷ the kernel's time in the same run is
// the time the nominal host would have taken.
const refNominal = 0.0013

// hostScale returns refNominal ÷ the itemQuantile of the kernel's times
// (1 with none): below 1 on a host running slower than the nominal one.
func hostScale(ref []float64) float64 {
	if len(ref) == 0 {
		return 1
	}
	return refNominal / quantile(ref, itemQuantile)
}

// timeRef runs the reference kernel once and returns its wall seconds.
func timeRef() float64 {
	t0 := time.Now()
	refSink += refWork(refSteps)
	return time.Since(t0).Seconds()
}

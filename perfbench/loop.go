package main

import (
	"fmt"
	"sort"
	"time"
)

// itemQuantile is the quantile of an item's times that stands for its
// cost, and of the reference kernel's times that stands for the host's
// speed. On a shared host the slow runs are the ones a neighbour
// interrupted; a low quantile over many runs skips them without resting
// on the single luckiest one.
const itemQuantile = 0.1

// item is one unit of closed-loop work: a simulation session, a grid
// run or a server lifetime. Its outcome's fingerprint must repeat exactly
// every time the item runs (simulation is deterministic per seed).
type item struct {
	key string
	run func() (outcome, error)
}

type outcome struct {
	instrs      uint64 // retired simulated instructions
	points      int    // sessions or grid points completed
	fingerprint string
}

// loop is the record of one closed-loop run.
type loop struct {
	keys        []string
	times       map[string][]float64 // wall seconds of every run of a key
	cpu         map[string][]float64 // process CPU seconds of every run of a key
	ref         []float64            // wall seconds of the reference kernel, timed after every item
	scale       float64              // refNominal ÷ the kernel's itemQuantile time: host time × scale is nominal-host time
	asideAlloc  uint64               // heap bytes allocated between items, outside the items
	first       map[string]outcome
	totalInstrs uint64
}

// runLoop runs items one after another, cycling through them until
// budget has elapsed; the first pass always completes, so every item
// has at least one sample. After each item it times the reference
// kernel. Errors and fingerprint mismatches are recorded against c; the
// failed item's points count as failed.
func runLoop(items []item, budget time.Duration, c *runLog) *loop {
	l := &loop{times: map[string][]float64{}, cpu: map[string][]float64{}, first: map[string]outcome{}}
	start := time.Now()
	for i := 0; i < len(items) || time.Since(start) < budget; i++ {
		it := items[i%len(items)]
		cpu0, t0 := cpuSeconds(), time.Now()
		out, err := it.run()
		secs, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		l.ref = append(l.ref, timeRef())
		if c.between != nil {
			l.asideAlloc += c.between()
		}
		first, seen := l.first[it.key]
		pts := out.points
		if seen {
			pts = first.points
		}
		c.attempted += max(pts, 1)
		if err != nil {
			c.fail(max(pts, 1), "%s: %v", it.key, err)
			continue
		}
		l.totalInstrs += out.instrs
		if !seen {
			l.keys = append(l.keys, it.key)
			l.first[it.key] = out
		} else if out.fingerprint != first.fingerprint {
			c.fail(pts, "%s: simulated counters differ from the first run of the same seed", it.key)
		}
		l.times[it.key] = append(l.times[it.key], secs)
		l.cpu[it.key] = append(l.cpu[it.key], cpu)
	}
	for k, ts := range l.times {
		c.samples[k] = ts
		c.cpuSamples[k] = l.cpu[k]
	}
	l.scale = hostScale(l.ref)
	c.ref = append(c.ref, l.ref...)
	return l
}

// pass returns the instructions and points of one pass over every item
// and the pass's robust wall and CPU time, in seconds of the nominal
// host: the sum of each item's itemQuantile time, scaled by l.scale.
func (l *loop) pass() (instrs uint64, points int, secs, cpu float64) {
	for _, k := range l.keys {
		instrs += l.first[k].instrs
		points += l.first[k].points
		secs += quantile(l.times[k], itemQuantile)
		cpu += quantile(l.cpu[k], itemQuantile)
	}
	return instrs, points, secs * l.scale, cpu * l.scale
}

// figures are what a closed-loop run measured over one pass of its
// items: instructions, points, robust wall and CPU time in seconds of the
// nominal host, and heap bytes allocated (the loop's allocation per
// retired instruction, times the pass's instructions).
type figures struct {
	instrs         uint64
	points         int
	secs, cpu      float64
	allocatedBytes float64
}

// figures reads a finished loop and the meter around it.
func (l *loop) figures(m *meter) figures {
	instrs, points, secs, cpu := l.pass()
	f := figures{instrs: instrs, points: points, secs: secs, cpu: cpu}
	if l.totalInstrs > 0 {
		f.allocatedBytes = float64(m.Alloc-l.asideAlloc) / float64(l.totalInstrs) * float64(instrs)
	}
	return f
}

// add combines the figures of two loops: a pass of a composite workload
// is a pass over each part.
func (f figures) add(g figures) figures {
	return figures{f.instrs + g.instrs, f.points + g.points, f.secs + g.secs, f.cpu + g.cpu, f.allocatedBytes + g.allocatedBytes}
}

// metrics turns figures into the end-to-end metrics every workload
// reports.
func (f figures) metrics() (map[string]float64, error) {
	if f.instrs == 0 || f.secs <= 0 {
		return nil, fmt.Errorf("no instruction retired")
	}
	return map[string]float64{
		"sim_mips":           float64(f.instrs) / f.secs / 1e6,
		"points_per_s":       float64(f.points) / f.secs,
		"cpu_ns_per_instr":   f.cpu * 1e9 / float64(f.instrs),
		"alloc_b_per_kinstr": f.allocatedBytes / float64(f.instrs) * 1e3,
	}, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

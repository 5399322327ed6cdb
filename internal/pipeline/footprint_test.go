package pipeline

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/progb"
	"repro/internal/rng"
)

// refSched is the map-backed reference for fuSched: per cycle and class
// it counts operations in flight with no ring, no aliasing and no
// forgetting, so it is exact for any span of cycles by construction.
type refSched struct {
	units [plan.NumFUClasses]uint8
	busy  map[uint64]*[plan.NumFUClasses]uint8
}

func (r *refSched) schedule(class plan.FUClass, ready, occ uint64) uint64 {
	for t := ready; ; t++ {
		free := true
		for k := uint64(0); k < occ; k++ {
			if c := r.busy[t+k]; c != nil && c[class] >= r.units[class] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for k := uint64(0); k < occ; k++ {
			c := r.busy[t+k]
			if c == nil {
				c = new([plan.NumFUClasses]uint8)
				r.busy[t+k] = c
			}
			c[class]++
		}
		return t
	}
}

// grown reports whether any class's time ring has outgrown start cells.
func grown(s *fuSched, start int) bool {
	for _, r := range s.rings {
		if len(r) > start {
			return true
		}
	}
	return false
}

// allFUs is the set of every functional-unit class.
const allFUs = plan.FUSet(1<<plan.NumFUClasses - 1)

// TestFUSchedMatchesReference feeds the same random operation streams to
// the growable time rings and to the map-backed reference and requires
// identical issue cycles. The streams cover ready times spread over more
// than 16,384 cycles while every cell is still live (the floor stays at
// zero, so nothing may be forgotten), a sliding floor that recycles dead
// cells, and multi-cycle occupancies long enough to wrap a small ring.
// Each stream runs on three ring layouts: every class at fuRingMin
// cells, every class starting at one cell (so every ring grows from
// the first collision), and rings for three classes only, the others
// absent as for a program that uses none of their instructions.
func TestFUSchedMatchesReference(t *testing.T) {
	streams := []struct {
		name   string
		spread uint64 // ready = floor + rand[0, spread)
		step   uint64 // floor advances by rand[0, step) per op; 0 pins it
		maxOcc int    // occupancies are drawn from [1, maxOcc]
		allOcc bool   // every op draws an occupancy, not one in four
		ops    int
	}{
		{"wide-all-live", 40_000, 0, 1, false, 20_000},
		{"wide-all-live-occ", 20_000, 0, 40, false, 10_000},
		{"wide-all-live-multi-cycle", 30_000, 0, 40, true, 5_000},
		{"sliding", 3_000, 4, 1, false, 60_000},
		{"sliding-occ", 2_500, 3, 24, false, 40_000},
		{"dense", 64, 3, 6, false, 40_000},
	}
	layouts := []struct {
		name  string
		start int // initial ring length
		used  plan.FUSet
	}{
		{"full", fuRingMin, allFUs},
		{"one-cell", 1, allFUs},
		{"three-classes", fuRingMin, 1<<plan.FUALU | 1<<plan.FUDiv | 1<<plan.FUMem},
	}
	for si, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			for _, lay := range layouts {
				t.Run(lay.name, func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(si + 1)))
					var units [plan.NumFUClasses]uint8
					var classes []plan.FUClass
					for c := range units {
						units[c] = uint8(1 + r.Intn(4))
						if lay.used.Has(plan.FUClass(c)) {
							classes = append(classes, plan.FUClass(c))
						}
					}
					var s fuSched
					s.reset(units, lay.used)
					for _, c := range classes {
						s.rings[c] = make([]fuCell, lay.start)
					}
					ref := &refSched{units: units, busy: map[uint64]*[plan.NumFUClasses]uint8{}}
					var floor, maxIssue uint64
					for i := 0; i < st.ops; i++ {
						if st.step > 0 {
							floor += uint64(r.Int63n(int64(st.step)))
						}
						class := classes[r.Intn(len(classes))]
						ready := floor + uint64(r.Int63n(int64(st.spread)))
						occ := uint64(1)
						if st.maxOcc > 1 && (st.allOcc || r.Intn(4) == 0) {
							occ = uint64(1 + r.Intn(st.maxOcc))
						}
						got := s.schedule(class, ready, occ, floor)
						want := ref.schedule(class, ready, occ)
						if got != want {
							t.Fatalf("op %d (class %d, ready %d, occ %d, floor %d): ring issued at %d, reference at %d",
								i, class, ready, occ, floor, got, want)
						}
						maxIssue = max(maxIssue, got)
					}
					if st.step == 0 && maxIssue < 1<<14 {
						t.Fatalf("stream spans only %d cycles; the test needs more than 16,384", maxIssue)
					}
					if st.step == 0 && !grown(&s, lay.start) {
						t.Fatalf("no ring grew on a stream with %d live cycles", maxIssue)
					}
					for c, ring := range s.rings {
						if !lay.used.Has(plan.FUClass(c)) && ring != nil {
							t.Fatalf("class %d, which the stream never schedules, has a %d-cell ring", c, len(ring))
						}
					}
				})
			}
		})
	}
}

// chaseTrace records the retired trace of a pointer chase whose 128
// nodes fall into four cache sets, 32 lines each: every node's first
// load misses L1 and L2 (cyclic reuse of 32 lines through 16 ways) and
// depends on the previous node, so the in-flight schedule outgrows the
// initial FU ring, while the misses allocate only a few of the L2's
// granules. Each node is read twice, a payload word and then the link in
// the same line, so every node is a two-access L1D line streak.
func chaseTrace(t *testing.T) ([]emu.DynInstr, func() *Pipeline) {
	t.Helper()
	b := progb.New("chase", false)
	const nodes, setStride, wayStride = 128, 4 << 10, 128 << 10
	base := b.AllocWords(32 * wayStride / 8)
	addr := func(i int64) int64 { return base + (i/4)*wayStride + (i%4)*setStride }
	for i := int64(0); i < nodes; i++ {
		b.InitWord(addr(i), uint64(addr((i+1)%nodes)))
	}
	b.MovInt(1, base)
	b.MovInt(2, 6000)
	b.ForN(3, 2, func() {
		b.Load(5, 1, 8)
		b.Load(1, 1, 0)
		b.Op3(isa.DIV, 4, 2, 2) // a multi-cycle op beside the chain
	})
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var trace recorder
	cpu.SetTraceSink(&trace)
	for !cpu.Halted() && cpu.Stats().Instructions < 1<<20 {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cpu.FlushTrace()
	return trace, func() *Pipeline {
		p, err := New(FourWide(), prog, branch.NewTAGESCL())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// snapshot encodes the pipeline's miss-event stage, predictor included,
// and its schedule, as sections "stage" and "pipe".
func snapshot(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	e := ckpt.NewEncoder()
	if err := p.Events.CheckpointState(e.Section("stage")); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointState(e.Section("pipe")); err != nil {
		t.Fatal(err)
	}
	data, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func restore(t *testing.T, p *Pipeline, data []byte) {
	t.Helper()
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := d.Section("stage")
	if err := p.Events.RestoreState(sr); err != nil {
		t.Fatal(err)
	}
	pr, _ := d.Section("pipe")
	if err := p.RestoreState(pr); err != nil {
		t.Fatal(err)
	}
	if n := sr.Len() + pr.Len(); n != 0 {
		t.Fatalf("%d checkpoint bytes left unread", n)
	}
}

// TestCheckpointSparseStateRoundTrip: after the FU ring has grown and
// cache granules have been allocated, checkpoint → restore → checkpoint is
// byte-identical, the restored machine (a fresh, minimum-size ring)
// times the rest of the trace exactly as the original does, and both end
// in byte-identical state. It cuts the trace twice: halfway, and between
// the two accesses of an L1D line streak, where the restored machine
// must bypass the cache model for the next access exactly as the
// original does.
func TestCheckpointSparseStateRoundTrip(t *testing.T) {
	trace, newPipe := chaseTrace(t)
	half := len(trace) / 2
	// The first data access past the half that repeats the line of the
	// data access before it.
	probe := newPipe()
	streak, prev := -1, ^uint64(0)
	for i, di := range trace {
		if probe.plan.Code[di.PC].Flags&(plan.FLoad|plan.FStore) == 0 {
			continue
		}
		line := di.MemAddr >> probe.dblockShift
		if i > half && line == prev {
			streak = i
			break
		}
		prev = line
	}
	if streak < 0 {
		t.Fatal("the trace has no L1D line streak past its half")
	}
	for _, cut := range []struct {
		name string
		at   int
	}{{"half", half}, {"mid-L1D-streak", streak}} {
		t.Run(cut.name, func(t *testing.T) {
			roundTrip(t, trace, cut.at, newPipe)
		})
	}
}

func roundTrip(t *testing.T, trace []emu.DynInstr, cut int, newPipe func() *Pipeline) {
	orig := newPipe()
	orig.ConsumeTrace(trace[:cut])
	if !grown(&orig.fus, fuRingMin) {
		t.Fatal("no FU ring grew; the test needs a grown ring")
	}
	// A cache's state leads with the number of granules it has touched.
	e := ckpt.NewEncoder()
	if err := orig.hier.L2.CheckpointState(e.Section("l2")); err != nil {
		t.Fatal(err)
	}
	l2, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.NewDecoder(l2)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := d.Section("l2")
	n := r.Uint()
	t.Logf("L2 has %d granules allocated", n)
	if n < 2 || n > 8 {
		t.Fatalf("L2 has %d granules allocated; the test needs a partial footprint", n)
	}

	data := snapshot(t, orig)
	restored := newPipe()
	restore(t, restored, data)
	if again := snapshot(t, restored); !bytes.Equal(data, again) {
		t.Fatalf("checkpoint → restore → checkpoint differs: %d vs %d bytes", len(data), len(again))
	}
	if restored.lastDBlock != orig.lastDBlock {
		t.Fatalf("restored L1D streak line %#x, original %#x", restored.lastDBlock, orig.lastDBlock)
	}

	orig.ConsumeTrace(trace[cut:])
	restored.ConsumeTrace(trace[cut:])
	if orig.Metrics() != restored.Metrics() {
		t.Fatalf("restored run diverged:\n orig     %+v\n restored %+v", orig.Metrics(), restored.Metrics())
	}
	if !bytes.Equal(snapshot(t, orig), snapshot(t, restored)) {
		t.Fatal("final states differ after replaying the same trace")
	}
}

// TestRestoreRejectsCellsOfAbsentClass: a checkpoint with live FU cells
// of a class the restoring pipeline's program never uses, and so has no
// ring for, is refused rather than scheduled into a missing ring.
func TestRestoreRejectsCellsOfAbsentClass(t *testing.T) {
	trace, newPipe := chaseTrace(t)
	orig := newPipe()
	orig.ConsumeTrace(trace[:len(trace)/2])
	if orig.fus.rings[plan.FUDiv] == nil {
		t.Fatal("the chase program has no divide ring")
	}
	data := snapshot(t, orig)

	b := progb.New("no-divide", false)
	b.MovInt(1, 1)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		t.Fatal(err)
	}
	if p.fus.rings[plan.FUDiv] != nil {
		t.Fatal("a program with no divide has a divide ring")
	}
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := d.Section("pipe")
	err = p.RestoreState(r)
	if err == nil || !strings.Contains(err.Error(), "does not use") {
		t.Fatalf("RestoreState = %v, want a refusal of the divide cells", err)
	}
}

// TestReleasedPipelineReplaysFresh: a pipeline built on the storage a
// released one handed back (stage, predictor, caches, ROB and FU rings)
// replays a trace to the state of a freshly allocated one, and keeps
// its FU rings at the size they grew to.
func TestReleasedPipelineReplaysFresh(t *testing.T) {
	trace, newPipe := chaseTrace(t)
	fresh := newPipe()
	fresh.ConsumeTrace(trace)
	want := snapshot(t, fresh)
	if !grown(&fresh.fus, fuRingMin) {
		t.Fatal("the chase trace grew no FU ring")
	}
	fresh.Events.Release()
	fresh.Release()

	again := newPipe()
	if again == fresh && !grown(&again.fus, fuRingMin) {
		t.Error("a recycled pipeline dropped its grown FU rings")
	}
	again.ConsumeTrace(trace)
	if !bytes.Equal(snapshot(t, again), want) {
		t.Error("a pipeline on released storage replays to a different state than a fresh one")
	}
}

// Package trace decouples the functional emulator from the timing model:
// a Ring is a small, bounded hand-off of owned trace batches between one
// producer goroutine (the emulator, via emu.CPU.SetTraceRing) and one
// consumer goroutine (the timing model, via Serve). The emulator fills a
// batch while the consumer drains earlier ones.
//
// sim.Session does not use it: every session times its trace
// synchronously through emu.TraceSink, which measured faster than the
// ring on a pipeline-bound run (see DESIGN.md, "Why the trace path is
// synchronous"). No code under internal/, cmd/ or examples/ calls this
// package outside its own tests; the perfbench module's traced runs
// wire a Ring by hand to attribute hand-off time.
//
// Ownership protocol: the ring pre-allocates every batch buffer it will
// ever use. Exactly one buffer is held by the producer (being filled) at
// any time; the rest are either queued full, being consumed, or waiting
// recycled. A delivered batch stays valid until the consumer recycles it
// — the emu.TraceSink contract under a ring — and a buffer returned by
// Exchange is the producer's to fill until the next Exchange. Nothing is
// allocated after New, so the steady state is allocation-free on both
// sides.
//
// Rendezvous: Drain is the deterministic barrier the simulation harness
// uses at observer boundaries and instruction limits — it returns only
// after the consumer has processed every batch delivered before the
// call, at which point timing-model state is safe to read from the
// producer side (the channel acknowledgement establishes the
// happens-before edge). Stop is Drain plus consumer shutdown; Serve can
// then be restarted for the next run segment.
package trace

import (
	"fmt"

	"repro/internal/emu"
)

// DefaultBatches is the default ring depth in batches. The consumer is
// the slow side, so a shallow ring is always full in steady state; depth
// beyond a few batches only adds cache-cold buffers.
const DefaultBatches = 4

// msg is one hand-off on the full channel: a filled batch, or a control
// message (barrier or stop) when batch is nil.
type msg struct {
	batch []emu.DynInstr
	ack   chan struct{} // control: consumer signals after all earlier batches
	stop  bool          // control: Serve returns after signalling
}

// Ring is a bounded single-producer/single-consumer queue of owned trace
// batches with backpressure. The producer side (Exchange, Drain, Stop)
// must be driven from one goroutine at a time — the goroutine advancing
// the emulator — and Serve runs on the consumer goroutine. A Ring is
// reusable across Serve sessions but never concurrently by two
// producers.
type Ring struct {
	full chan msg
	free chan []emu.DynInstr
	ack  chan struct{} // reusable barrier acknowledgement (single producer)
}

// New builds a ring owning `batches` buffers of emu.TraceBatch capacity.
// The producer always holds one buffer, so a 1-batch ring degenerates to
// a lockstep hand-off per batch — maximum backpressure, useful in stress
// tests — and 2+ lets emulation and timing overlap.
func New(batches int) *Ring {
	if batches < 1 {
		panic(fmt.Sprintf("trace: ring needs at least 1 batch, got %d", batches))
	}
	r := &Ring{
		// +1 so a control message never waits behind a full data queue.
		full: make(chan msg, batches+1),
		free: make(chan []emu.DynInstr, batches),
		ack:  make(chan struct{}, 1),
	}
	for i := 0; i < batches; i++ {
		r.free <- make([]emu.DynInstr, 0, emu.TraceBatch)
	}
	return r
}

// Exchange implements emu.TraceRing: it delivers the filled batch to the
// consumer and returns the next empty buffer for the producer to fill,
// blocking while every buffer is in flight (backpressure). A nil batch
// is the initial request for a buffer; an empty non-nil batch is handed
// straight back. Exchange must only be called while a Serve is running,
// or the backpressure block would never resolve.
func (r *Ring) Exchange(filled []emu.DynInstr) []emu.DynInstr {
	if filled == nil {
		return <-r.free
	}
	if len(filled) == 0 {
		return filled
	}
	r.full <- msg{batch: filled}
	return <-r.free
}

// Serve consumes batches in delivery order, feeding each to sink and
// recycling its buffer, until a Stop arrives. Run it on the consumer
// goroutine; sink state is confined to that goroutine between barriers.
func (r *Ring) Serve(sink emu.TraceSink) {
	for {
		m := <-r.full
		if m.batch != nil {
			sink.ConsumeTrace(m.batch)
			r.free <- m.batch[:0]
			continue
		}
		m.ack <- struct{}{}
		if m.stop {
			return
		}
	}
}

// Drain blocks until the consumer has processed every batch delivered
// before the call. On return, all timing-model state the consumer built
// from those batches is visible to the caller (happens-before via the
// acknowledgement), so the producer side may read it until it delivers
// the next batch.
func (r *Ring) Drain() {
	r.full <- msg{ack: r.ack}
	<-r.ack
}

// Stop drains and then shuts the consumer down: when it returns, every
// delivered batch has been consumed and the Serve loop is returning
// without touching the ring or the sink again. A new Serve may be
// started immediately.
func (r *Ring) Stop() {
	r.full <- msg{ack: r.ack, stop: true}
	<-r.ack
}

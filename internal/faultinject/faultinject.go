// Package faultinject provides deterministic, seeded network fault
// injection for exercising the sweep service's recovery paths. An
// Injector wraps an http.RoundTripper and, driven by the repository's
// own deterministic rng.Stream, makes requests vanish before they reach
// the server (drop), lose their response after the server has processed
// them (reset), arrive twice (duplicate), or arrive late (delay).
//
// The four faults are chosen because each one probes a different
// protocol obligation: a drop demands retry, a reset demands
// idempotent handlers (the request DID happen), a duplicate demands
// that handlers tolerate replay, and a delay demands that nothing
// depends on timely arrival. The chaos suite in internal/serve runs
// whole sweeps under an Injector and requires output byte-identical to
// an in-process run — the determinism argument of DESIGN.md §8 extended
// to a faulty network.
//
// Determinism: all fault decisions for one Injector are drawn from a
// single seeded stream under a mutex, so a fixed seed yields a
// reproducible decision sequence for any fixed order of calls.
// Concurrent callers interleave nondeterministically, but every
// interleaving draws from the same stream — reseeding reproduces a
// failure class, not a byte-exact schedule.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
)

// ErrDropped marks a request the injector discarded before it reached
// the server. The caller must assume the server never saw it.
var ErrDropped = errors.New("faultinject: request dropped")

// ErrReset marks a request whose response the injector discarded after
// the server processed it. The caller must assume the server DID see
// it — the case that flushes out non-idempotent handlers.
var ErrReset = errors.New("faultinject: connection reset after delivery")

// Config declares the fault mix. Probabilities are per request and
// independent; zero values inject nothing, so the zero Config is a
// transparent wrapper.
type Config struct {
	// Seed seeds the decision stream; equal seeds replay equal decision
	// sequences for equal call orders.
	Seed uint64
	// DropProb is the probability a request is discarded before
	// transmission (the server never sees it).
	DropProb float64
	// ResetProb is the probability a response is discarded after the
	// request was fully delivered and handled (the server saw it; the
	// caller gets an error).
	ResetProb float64
	// DupProb is the probability a request is transmitted twice before
	// its (second) response is returned. Requires a replayable body
	// (http.Request.GetBody), which all of internal/serve's requests
	// have; non-replayable requests are never duplicated.
	DupProb float64
	// DelayProb is the probability a request is held for a uniform
	// duration in (0, MaxDelay] before transmission.
	DelayProb float64
	// MaxDelay bounds injected delays; 0 disables delay even when
	// DelayProb is set.
	MaxDelay time.Duration
}

// Stats counts the faults an Injector has injected. It exists so tests
// can assert the chaos they configured actually happened.
type Stats struct {
	Requests int
	Drops    int
	Resets   int
	Dups     int
	Delays   int
}

// Injector makes seeded fault decisions. One Injector may back any
// number of transports; they share its stream and its stats.
type Injector struct {
	cfg   Config
	mu    sync.Mutex
	rng   *rng.Stream
	stats Stats
}

// New returns an injector for the given fault mix.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rng.New(cfg.Seed)}
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decision is one request's fate, drawn atomically so concurrent
// requests each consume a well-defined run of the stream.
type decision struct {
	drop, reset, dup bool
	delay            time.Duration
}

func (in *Injector) decide() decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Requests++
	var d decision
	if in.cfg.DelayProb > 0 && in.cfg.MaxDelay > 0 && in.rng.Float64() < in.cfg.DelayProb {
		d.delay = time.Duration(in.rng.Float64Open() * float64(in.cfg.MaxDelay))
		in.stats.Delays++
	}
	// Drop, reset and dup are mutually exclusive per request: a dropped
	// request has nothing to reset, and duplicating a reset request
	// would conflate the two obligations under test.
	switch {
	case in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb:
		d.drop = true
		in.stats.Drops++
	case in.cfg.ResetProb > 0 && in.rng.Float64() < in.cfg.ResetProb:
		d.reset = true
		in.stats.Resets++
	case in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb:
		d.dup = true
		in.stats.Dups++
	}
	return d
}

// transport wraps a RoundTripper with the injector's faults.
type transport struct {
	in   *Injector
	base http.RoundTripper
}

// Transport returns a RoundTripper that injects the configured faults
// in front of base (nil means http.DefaultTransport).
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.decide()
	if d.delay > 0 {
		select {
		case <-time.After(d.delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if d.drop {
		// Never sent: close the body (the RoundTripper contract) and
		// fail as a connection error would.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrDropped}
	}
	if d.dup && req.GetBody != nil {
		// First delivery: send, drain, discard. The server handles the
		// request twice; the caller sees only the second response.
		if resp, err := t.base.RoundTrip(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		body, err := req.GetBody()
		if err != nil {
			return nil, fmt.Errorf("faultinject: duplicate delivery: %w", err)
		}
		clone := req.Clone(req.Context())
		clone.Body = body
		req = clone
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.reset {
		// Delivered and handled; the response is lost on the way back.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: ErrReset}
	}
	return resp, nil
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// runChunk is the default RunFor granularity of a worker's simulations:
// coarse enough that chunking cost vanishes (sessions retire the same
// stream at any chunk size, see sim.Session.RunFor), fine enough that a
// lost lease or worker shutdown aborts a point promptly.
const runChunk = 1 << 18

// errReleased marks a run the worker deliberately handed back
// (checkpoint released to the server) during drain.
var errReleased = errors.New("serve: lease released")

// errLeaseLost marks a run whose lease the server reported gone on a
// progress renewal: someone else owns the point now, abandon silently.
var errLeaseLost = errors.New("serve: lease lost")

// Worker pulls leased points from a Server and executes them through
// the same session path as the in-process engine: cached shared
// programs, warm-prefix forking from the group checkpoint (fetched
// from — or built once for — the server), and chunked runs that abort
// when the lease is lost. A Worker runs one point at a time; start
// several (sharing one ProgramCache) to use more cores.
//
// Fault posture: transient request failures retry with jittered
// exponential backoff bounded by RetryBudget; renewals piggyback
// progress checkpoints so the server can migrate the point if this
// worker dies; and Drain stops the worker gracefully — it finishes or
// checkpoints-and-releases its current point instead of abandoning it.
type Worker struct {
	// Server is the base URL of the job server, e.g. "http://host:9571".
	Server string
	// Name identifies the worker in server logs.
	Name string
	// HTTP is the client used for every request; nil means a default
	// with no overall timeout (streams and long polls need none).
	HTTP *http.Client
	// Programs caches assembled programs across points. Workers on one
	// machine should share a cache; nil builds a private one.
	Programs *sweep.ProgramCache
	// Deprecated: ignored; timing is always synchronous.
	SyncTiming bool
	// Poll is the idle re-poll interval floor; the zero value defers to
	// the server's suggestion (or 100ms).
	Poll time.Duration
	// Chunk overrides the RunFor granularity (and with it the progress
	// check cadence); the zero value means runChunk. Tests shrink it so
	// short points still cross chunk boundaries.
	Chunk uint64
	// ProgressEvery is the minimum interval between progress checkpoints
	// piggybacked on renewals; the zero value means a third of the lease
	// TTL (the background renew cadence).
	ProgressEvery time.Duration
	// RetryBudget bounds how long a request retries through transient
	// failures before the worker gives up and surfaces the error; the
	// zero value means 2 minutes — enough to ride out a server restart.
	RetryBudget time.Duration

	drainOnce sync.Once
	drain     chan struct{}
}

// Drain asks the worker to stop gracefully: it finishes — or
// checkpoints and releases — the point it is running, then Run returns
// nil. Safe to call from any goroutine, any number of times.
func (w *Worker) Drain() {
	w.drainOnce.Do(func() {
		if w.drain == nil {
			w.drain = make(chan struct{})
		}
	})
	select {
	case <-w.drain:
	default:
		close(w.drain)
	}
}

// drainC returns the drain channel, creating it on first use. The same
// sync.Once guards creation here and in Drain so the two never race.
func (w *Worker) drainC() <-chan struct{} {
	w.drainOnce.Do(func() {
		if w.drain == nil {
			w.drain = make(chan struct{})
		}
	})
	return w.drain
}

func (w *Worker) drained() bool {
	select {
	case <-w.drainC():
		return true
	default:
		return false
	}
}

func (w *Worker) chunk() uint64 {
	if w.Chunk > 0 {
		return w.Chunk
	}
	return runChunk
}

func (w *Worker) retryBudget() time.Duration {
	if w.RetryBudget > 0 {
		return w.RetryBudget
	}
	return 2 * time.Minute
}

// Run leases and executes points until ctx is cancelled, Drain is
// called (graceful: returns nil), or the server stays unreachable past
// the retry budget (returns the last transport error).
func (w *Worker) Run(ctx context.Context) error {
	if w.Programs == nil {
		w.Programs = sweep.NewProgramCache()
	}
	bo := newBackoff(50*time.Millisecond, 2*time.Second)
	var failSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.drained() {
			return nil
		}
		var lr LeaseResponse
		if err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &lr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if failSince.IsZero() {
				failSince = time.Now()
			}
			if time.Since(failSince) > w.retryBudget() {
				return fmt.Errorf("serve: worker %s: server unreachable for %v: %w", w.Name, w.retryBudget(), err)
			}
			w.wait(ctx, bo.next())
			continue
		}
		failSince = time.Time{}
		bo.reset()
		if lr.Status != StatusPoint || lr.Point == nil {
			w.wait(ctx, w.idleDelay(lr.RetryMS))
			continue
		}
		w.execute(ctx, lr)
	}
}

// execute runs one leased point, renewing the lease in the background
// and aborting the simulation if the lease is lost (the server
// re-leased it or cancelled the job). The completion report is skipped
// when the run was aborted — someone else owns the point now — and
// replaced by a checkpoint release when the worker is draining.
func (w *Worker) execute(ctx context.Context, lr LeaseResponse) {
	p := *lr.Point
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	go w.renewLoop(pctx, cancel, stop, lr.Lease, ttl)

	res, err := w.runLeased(pctx, p, lr, ttl)
	switch {
	case err == nil:
		w.postRetry(ctx, "/v1/complete", CompleteRequest{Lease: lr.Lease, Point: p, Result: wireResult(res)}, &CompleteResponse{})
	case errors.Is(err, errReleased) || errors.Is(err, errLeaseLost):
		// Released with its checkpoint, or owned elsewhere: not ours to
		// report either way.
	case pctx.Err() != nil:
		// Aborted: lease lost via renewals or worker shutdown. Do not
		// report — an abort is not a simulation failure.
	default:
		w.postRetry(ctx, "/v1/complete", CompleteRequest{Lease: lr.Lease, Point: p, Error: err.Error()}, &CompleteResponse{})
	}
}

// renewLoop keeps the lease alive at a jittered TTL/3 cadence (jitter
// keeps a fleet of workers from renewing in lockstep), cancelling the
// run when the server says the lease is gone or stays unreachable past
// the silence the server itself tolerates.
func (w *Worker) renewLoop(pctx context.Context, cancel context.CancelFunc, stop <-chan struct{}, lease uint64, ttl time.Duration) {
	misses := 0
	for {
		t := time.NewTimer(jitter(ttl / 3))
		select {
		case <-stop:
			t.Stop()
			return
		case <-pctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		var rr RenewResponse
		if err := w.post(pctx, "/v1/renew", RenewRequest{Lease: lease}, &rr); err != nil {
			if misses++; misses >= 3 {
				cancel()
				return
			}
			continue
		}
		misses = 0
		if rr.Status != StatusOK {
			cancel()
			return
		}
	}
}

// runLeased executes the leased point: resumed from a migrated progress
// checkpoint when the lease ships one, else warm-forked or cold. Along
// the way it piggybacks fresh progress checkpoints on renewals (so the
// server can migrate the point if this worker dies) and honors drain by
// checkpointing and releasing the lease mid-point.
func (w *Worker) runLeased(ctx context.Context, p sweep.Point, lr LeaseResponse, ttl time.Duration) (*sim.Result, error) {
	s, err := w.startSession(ctx, p, lr.Checkpoint)
	if err != nil {
		return nil, err
	}
	every := w.ProgressEvery
	if every <= 0 {
		every = ttl / 3
	}
	last := time.Now()
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.RunFor(w.chunk()); err != nil {
			return nil, err
		}
		if s.Done() {
			break
		}
		if w.drained() {
			// Graceful drain mid-point: hand the progress back with the
			// lease so the next worker continues where this one stopped.
			w.release(ctx, lr.Lease, s)
			return nil, errReleased
		}
		if time.Since(last) >= every {
			last = time.Now()
			ck, err := s.Checkpoint()
			if err != nil {
				continue // not checkpointable here; the next chunk will be
			}
			var rr RenewResponse
			if err := w.post(ctx, "/v1/renew", RenewRequest{Lease: lr.Lease, Checkpoint: ck.Bytes(), Instrs: ck.Instructions()}, &rr); err == nil && rr.Status != StatusOK {
				return nil, errLeaseLost
			}
		}
	}
	return s.Result(), nil
}

// release posts the current session state back with the lease. A
// checkpoint failure degrades to a bare release — the server re-queues
// the point with whatever progress it already holds.
func (w *Worker) release(ctx context.Context, lease uint64, s *sim.Session) {
	req := ReleaseRequest{Lease: lease}
	if ck, err := s.Checkpoint(); err == nil {
		req.Checkpoint = ck.Bytes()
		req.Instrs = ck.Instructions()
	}
	w.postRetry(ctx, "/v1/release", req, &ReleaseResponse{})
}

// startSession builds the session for a point: resumed from a
// predecessor's progress checkpoint when one is supplied, else
// warm-forked from the group prefix, else cold. A progress checkpoint
// that fails to load or resume is only a lost optimization — the point
// falls back to the warm/cold path and produces the identical result.
func (w *Worker) startSession(ctx context.Context, p sweep.Point, progress []byte) (*sim.Session, error) {
	opts, err := p.Options()
	if err != nil {
		return nil, err
	}
	prog, err := w.Programs.Get(p.Workload, p.Scale, p.Variant)
	if err != nil {
		return nil, err
	}
	opts = append(opts, sim.WithProgram(prog))

	if len(progress) > 0 {
		if ck, err := sim.LoadCheckpoint(progress); err == nil {
			if s, err := sim.Resume(ck, opts...); err == nil {
				return s, nil
			}
		}
	}
	if wp, ok := p.WarmPoint(); ok {
		data, cold, err := w.warmBytes(ctx, wp)
		if err != nil {
			return nil, fmt.Errorf("warm prefix %s: %w", wp, err)
		}
		if !cold {
			ck, err := sim.LoadCheckpoint(data)
			if err != nil {
				return nil, fmt.Errorf("warm prefix %s: %w", wp, err)
			}
			return sim.Resume(ck, opts...)
		}
	}
	return sim.New(p.Workload, opts...)
}

// runPoint executes one single-seed point exactly as the in-process
// engine's runPoint does: shared cached program, warm-prefix fork when
// the point calls for one, then a (chunked, abortable) run to
// completion. Determinism of sessions makes the execution site
// irrelevant: this result is byte-for-byte the engine's.
func (w *Worker) runPoint(ctx context.Context, p sweep.Point) (*sim.Result, error) {
	s, err := w.startSession(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.RunFor(w.chunk()); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// warmBytes resolves the group's warm checkpoint through the server's
// singleflight: served bytes if some worker already built it, a local
// build (uploaded for the rest of the cluster) if this worker drew the
// build token, or cold=true when the program halts inside the prefix.
func (w *Worker) warmBytes(ctx context.Context, wp sweep.Point) (data []byte, cold bool, err error) {
	for {
		var wr WarmResponse
		// Retried like every other protocol request: a dropped response
		// just re-asks, which the server treats as a duplicated delivery
		// (an outstanding build token answers wait until its deadline).
		if err := w.postRetry(ctx, "/v1/warm", WarmRequest{Point: wp}, &wr); err != nil {
			return nil, false, err
		}
		switch wr.Status {
		case StatusReady:
			return wr.Data, false, nil
		case StatusCold:
			return nil, true, nil
		case StatusBuild:
			data, halted, err := w.buildWarm(ctx, wp)
			if err != nil {
				// Report the failure so the slot clears for the next
				// requester, then surface it to this point's job.
				w.post(ctx, "/v1/warm/complete", WarmCompleteRequest{Point: wp, Token: wr.Token, Error: err.Error()}, &CompleteResponse{})
				return nil, false, err
			}
			if err := w.postRetry(ctx, "/v1/warm/complete", WarmCompleteRequest{Point: wp, Token: wr.Token, Data: data, Halted: halted}, &CompleteResponse{}); err != nil {
				return nil, false, err
			}
			return data, halted, nil
		case StatusWait:
			if !sleepCtx(ctx, w.idleDelay(wr.RetryMS)) {
				return nil, false, ctx.Err()
			}
		default:
			return nil, false, fmt.Errorf("serve: unexpected warm status %q", wr.Status)
		}
	}
}

// buildWarm runs the functional prefix locally, mirroring the engine's
// runWarmPrefix: chunked so an abort lands promptly, halted=true when
// the program ends inside the prefix (no suffix to share).
func (w *Worker) buildWarm(ctx context.Context, wp sweep.Point) (data []byte, halted bool, err error) {
	opts, err := wp.Options()
	if err != nil {
		return nil, false, err
	}
	prog, err := w.Programs.Get(wp.Workload, wp.Scale, wp.Variant)
	if err != nil {
		return nil, false, err
	}
	opts = append(opts, sim.WithProgram(prog))
	s, err := sim.New(wp.Workload, opts...)
	if err != nil {
		return nil, false, err
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if _, err := s.RunFor(w.chunk()); err != nil {
			return nil, false, err
		}
	}
	if s.Halted() {
		return nil, true, nil
	}
	ck, err := s.Checkpoint()
	if err != nil {
		return nil, false, err
	}
	return ck.Bytes(), false, nil
}

// idleDelay computes the jittered idle re-poll delay: the larger of the
// server's suggestion and the worker's Poll floor, spread ±50% so a
// fleet doesn't poll in lockstep.
func (w *Worker) idleDelay(retryMS int64) time.Duration {
	d := time.Duration(retryMS) * time.Millisecond
	if w.Poll > d {
		d = w.Poll
	}
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	return jitter(d)
}

// wait sleeps for d, ending early on ctx cancellation or drain.
func (w *Worker) wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-w.drainC():
	case <-t.C:
	}
}

// post sends one JSON request and decodes the JSON response.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	return postJSON(ctx, w.httpClient(), w.Server, path, in, out)
}

// postRetry is post with jittered exponential backoff through transient
// transport failures, bounded by the worker's retry budget. Responses
// the server actually produced — including non-2xx statuses — are never
// retried: a rejected request stays rejected.
func (w *Worker) postRetry(ctx context.Context, path string, in, out any) error {
	bo := newBackoff(50*time.Millisecond, 2*time.Second)
	deadline := time.Now().Add(w.retryBudget())
	for {
		err := w.post(ctx, path, in, out)
		var se *statusError
		if err == nil || ctx.Err() != nil || errors.As(err, &se) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %s: retry budget exhausted: %w", path, err)
		}
		if !sleepCtx(ctx, bo.next()) {
			return ctx.Err()
		}
	}
}

func (w *Worker) httpClient() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return http.DefaultClient
}

// backoff produces a jittered exponential delay sequence.
type backoff struct {
	base, cur, max time.Duration
}

func newBackoff(base, max time.Duration) *backoff {
	return &backoff{base: base, cur: base, max: max}
}

func (b *backoff) next() time.Duration {
	d := jitter(b.cur)
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	return d
}

func (b *backoff) reset() { b.cur = b.base }

// jitter spreads d uniformly over [d/2, 3d/2) so retries and renewals
// from many workers decorrelate. (math/rand, not the repo's rng: these
// draws must NOT be deterministic — decorrelation is the point — and
// they never influence simulation results.)
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// statusError is a response the server produced with a non-2xx status:
// a definitive answer, not a transport failure, so retry layers pass it
// through.
type statusError struct {
	path   string
	status string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("serve: %s: %s: %s", e.path, e.status, e.msg)
}

// postJSON is the one HTTP call shape the whole protocol uses:
// POST JSON in, JSON out, non-2xx mapped to a *statusError carrying the
// server's message. The request body is a bytes.Reader, so GetBody is
// set and the request is replayable — which retry layers and
// faultinject's duplicate delivery both rely on.
func postJSON(ctx context.Context, c *http.Client, base, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{path: path, status: resp.Status, msg: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: %s: decode response: %w", path, err)
	}
	return nil
}

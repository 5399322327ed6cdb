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

// errReleased marks a run the worker deliberately handed back
// (checkpoint released to the server) during drain.
var errReleased = errors.New("serve: lease released")

// errLeaseLost marks a run whose lease the server reported gone on a
// progress renewal: someone else owns the group now, abandon silently.
var errLeaseLost = errors.New("serve: lease lost")

// Worker pulls leased stream groups from a Server and executes each as
// one session started by the in-process engine's group starter
// (sweep.StartGroup): cached shared programs, the group's warm prefix
// fast-forwarded once for every member, and chunked runs that abort
// when the lease is lost. Once a group's results are taken and any
// checkpoint is posted, the worker closes its session, so the next
// group runs on the same machine storage (see sim.Session.Close). A
// Worker runs one group at a time; start several (sharing one
// ProgramCache) to use more cores.
//
// Fault posture: transient request failures retry with jittered
// exponential backoff bounded by RetryBudget; renewals piggyback
// progress checkpoints of the whole group so the server can migrate it
// if this worker dies; and Drain stops the worker gracefully — it
// finishes or checkpoints-and-releases its current group instead of
// abandoning it.
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
	// check cadence); the zero value means sweep.RunChunk. Tests shrink
	// it so short points still cross chunk boundaries.
	Chunk uint64
	// ProgressEvery is the minimum interval between progress checkpoints
	// piggybacked on renewals; the zero value means a third of the lease
	// TTL (the background renew cadence).
	ProgressEvery time.Duration
	// RetryBudget bounds how long a request retries through transient
	// failures before the worker gives up and surfaces the error; the
	// zero value means 2 minutes — enough to ride out a server restart.
	RetryBudget time.Duration

	drainInit  sync.Once
	drainClose sync.Once
	drain      chan struct{}
}

// Drain asks the worker to stop gracefully: it finishes — or
// checkpoints and releases — the group it is running, then Run returns
// nil. Safe to call from any goroutine, any number of times.
func (w *Worker) Drain() {
	w.drainClose.Do(func() { close(w.drainC()) })
}

// drainC returns the drain channel, creating it on first use.
func (w *Worker) drainC() chan struct{} {
	w.drainInit.Do(func() { w.drain = make(chan struct{}) })
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
	return sweep.RunChunk
}

func (w *Worker) retryBudget() time.Duration {
	if w.RetryBudget > 0 {
		return w.RetryBudget
	}
	return 2 * time.Minute
}

// Run leases and executes groups until ctx is cancelled, Drain is
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
		if lr.Status != StatusPoint || len(lr.Points) == 0 {
			w.wait(ctx, w.idleDelay(lr.RetryMS))
			continue
		}
		w.execute(ctx, lr)
	}
}

// execute runs one leased group, renewing the lease in the background
// and aborting the simulation if the lease is lost (the server
// re-leased it or cancelled its jobs). The completion report is skipped
// when the run was aborted — someone else owns the group now — and
// replaced by a checkpoint release when the worker is draining.
func (w *Worker) execute(ctx context.Context, lr LeaseResponse) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	go w.renewLoop(pctx, cancel, stop, lr.Lease, ttl)

	res, err := w.runLeased(pctx, lr, ttl)
	switch {
	case errors.Is(err, errReleased) || errors.Is(err, errLeaseLost):
		// Released with its checkpoint, or owned elsewhere: not ours to
		// report either way.
		return
	case err != nil && pctx.Err() != nil:
		// Aborted: lease lost via renewals or worker shutdown. Do not
		// report — an abort is not a simulation failure.
		return
	}
	members := make([]MemberResult, len(lr.Points))
	for i, p := range lr.Points {
		members[i].Point = p
		if err != nil {
			members[i].Error = err.Error()
		} else {
			members[i].Result = res[i]
		}
	}
	w.postRetry(ctx, "/v1/complete", CompleteRequest{Lease: lr.Lease, Members: members}, &CompleteResponse{})
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

// runLeased executes the leased group (see sweep.StartGroup): resumed
// from a migrated progress checkpoint when the lease ships one, else
// cold, fast-forwarded over any warm prefix. Along the way it
// piggybacks fresh progress checkpoints on renewals (so the server can
// migrate the group if this worker dies) and honors drain by
// checkpointing and releasing the lease mid-run. Errors name the point
// they belong to.
func (w *Worker) runLeased(ctx context.Context, lr LeaseResponse, ttl time.Duration) ([]*sim.Result, error) {
	lead := lr.Points[0]
	prog, err := w.Programs.Get(lead.Workload, lead.Scale, lead.Variant)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lead, err)
	}
	// A progress checkpoint that fails to load is only a lost
	// optimization: the group starts afresh and produces the identical
	// results.
	from, _ := sim.LoadCheckpoint(lr.Checkpoint)
	s, err := sweep.StartGroup(ctx, lr.Points, prog, from, w.chunk())
	if err != nil {
		return nil, err
	}
	defer s.Close() // after its results are taken and any checkpoint posted
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
			return nil, fmt.Errorf("%s: %w", lead, err)
		}
		if s.Done() {
			break
		}
		if w.drained() {
			// Graceful drain mid-run: hand the progress back with the
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
	return s.Results()
}

// release posts the current session state back with the lease. A
// checkpoint failure degrades to a bare release — the server re-queues
// the group with whatever progress it already holds.
func (w *Worker) release(ctx context.Context, lease uint64, s *sim.Session) {
	req := ReleaseRequest{Lease: lease}
	if ck, err := s.Checkpoint(); err == nil {
		req.Checkpoint = ck.Bytes()
		req.Instrs = ck.Instructions()
	}
	w.postRetry(ctx, "/v1/release", req, &ReleaseResponse{})
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
	if err := decodeBody(resp.Body, out, false); err != nil {
		return fmt.Errorf("serve: %s: decode response: %w", path, err)
	}
	return nil
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Server is the sweep job coordinator. It owns no simulation: grids
// submitted by clients expand into single-seed runs that pull-based
// workers lease, execute and complete, and the server merges completed
// results back into jobs — including the per-seed shard merge of
// aggregate points — exactly as the in-process engine would.
//
// The unit of leasing is a stream group: pending runs that share a
// functional stream (sweep.Point.StreamPoint), which a worker emulates
// once for all of them (sweep.StartGroup). Runs gather in their
// stream's group until it is leased. Like the engine's pool, the server
// splits queued groups (sweep.SplitGroups) while there are fewer of
// them than active workers — those holding a lease or asking for one
// within the last lease TTL — so grouping never idles a worker; with
// one worker no group is split. Once leased, a group's membership is
// fixed: it is renewed, released, expired and re-queued as a unit,
// together with its progress checkpoint.
//
// Deduplication happens at two layers. In flight, runs are singleflight
// by content address: points shared by concurrent jobs (or repeated
// within one job's seed set) attach as waiters to one run and all
// receive its result. At rest, completed results persist in the Store,
// so a re-submitted or overlapping grid is answered at submission time
// without touching the pool.
//
// Failure semantics mirror the engine's first-error abort, scoped per
// job: a worker-reported error fails every job waiting on that run,
// cancels the jobs' other pending runs, and answers subsequent renewals
// of their in-flight leases with StatusGone once no member of the group
// is still wanted, so workers abandon it mid-run. A lease that is
// neither renewed nor completed within its TTL is reclaimed and the
// group re-leased — worker loss delays a job, never wedges it. Workers
// piggyback mid-run progress checkpoints on their renewals, so a
// re-leased group resumes where its dead worker left off instead of
// restarting cold.
//
// With AttachJournal, accepted jobs and delivered rows are also
// recorded in a durable journal; a restarted server replays it, rebuilds
// every job, and re-queues unfinished points against the store's dedup —
// server death delays a job exactly like worker death does.
type Server struct {
	// LeaseTTL is the worker lease deadline (renewals reset it). The
	// zero value means 30s.
	LeaseTTL time.Duration
	// RetryMS is the poll interval the server suggests to idle workers.
	// The zero value means 100ms.
	RetryMS int64
	// Logf, when set, receives one line per protocol event.
	Logf func(format string, args ...any)

	store   *Store
	journal *Journal
	now     func() time.Time // test seam; time.Now otherwise

	mu        sync.Mutex
	jobs      map[string]*job
	runs      map[string]*run        // queued or leased runs by address
	open      map[sweep.Point]*group // per stream, the queued group still gathering runs
	queue     []*group               // FIFO of queued groups; may hold dead ones
	leases    map[uint64]*group      // leased groups by lease
	asked     map[string]time.Time   // per worker name, its last lease request
	nextJob   uint64
	nextLease uint64
	draining  bool
	// emitRow's scratch: rowEnc encodes each record from rowRec (so the
	// record is not boxed on the heap) into rowBuf, and the bytes are
	// copied once, into the record's stream line.
	rowRec sweep.Record
	rowBuf bytes.Buffer
	rowEnc *json.Encoder
}

// NewServer returns a server backed by the given store (which may be
// memory-only, see NewMemStore).
func NewServer(store *Store) *Server {
	s := &Server{
		store:  store,
		now:    time.Now,
		jobs:   make(map[string]*job),
		runs:   make(map[string]*run),
		open:   make(map[sweep.Point]*group),
		leases: make(map[uint64]*group),
		asked:  make(map[string]time.Time),
	}
	s.rowEnc = json.NewEncoder(&s.rowBuf)
	return s
}

// taskRef names one run of a job's batch (an index into its Runs).
type taskRef struct {
	job *job
	run int
}

// run is one executable single-seed point, plus every job output slot
// waiting on it. Runs are singleflight by address — a point two jobs
// need executes once. A run with no waiters left (its jobs failed) is
// dead: a queued group drops it, a leased one carries it to the end.
type run struct {
	addr    string
	point   sweep.Point
	waiters []taskRef
}

// group is the unit of leasing: runs sharing one functional stream.
type group struct {
	stream sweep.Point // the runs' StreamPoint()
	runs   []*run
	// fixed records that the membership no longer changes: the group was
	// leased (its progress checkpoint holds one timing model per run) or
	// split. Until then a queued group gathers its stream's new runs.
	fixed    bool
	lease    uint64 // 0 while queued
	worker   string
	deadline time.Time
	// progress is the latest mid-run checkpoint a worker piggybacked on
	// a renewal (or handed back with a released lease). A re-lease
	// ships it so the next worker resumes instead of restarting cold.
	// It replaces only on a higher instruction count and is dropped
	// with the group — the mutable, in-memory contrast to the immutable
	// result store: progress is a hint worth at most one TTL of work,
	// never a value anyone depends on.
	progress       []byte
	progressInstrs uint64
}

// live reports whether any run of the group is still wanted.
func (g *group) live() bool {
	for _, ru := range g.runs {
		if len(ru.waiters) > 0 {
			return true
		}
	}
	return false
}

// points lists the group's points in member order.
func (g *group) points() []sweep.Point {
	pts := make([]sweep.Point, len(g.runs))
	for i, ru := range g.runs {
		pts[i] = ru.point
	}
	return pts
}

// job is one submitted grid: its batch (the runs, the output-row
// layout and the partial results, see sweep.Batch) and the append-only
// stream log.
type job struct {
	id       string
	batch    *sweep.Batch
	rowsLeft int
	log      []logEntry
	notify   chan struct{} // made by a waiting stream, closed and cleared by the next append
	finished bool
	errmsg   string
}

// logEntry is one entry of a job's stream log. Its NDJSON line is
// encoded once, when the entry is appended, and every stream that
// reads the entry writes those bytes.
type logEntry struct {
	line []byte // the StreamEntry's JSON encoding and a newline
	pos  int    // the row's position; 0 on the terminal entry
	done bool   // the terminal entry
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/renew", s.handleRenew)
	mux.HandleFunc("POST /v1/release", s.handleRelease)
	mux.HandleFunc("POST /v1/complete", s.handleComplete)
	return mux
}

// Drain stops leasing new work and waits for every outstanding lease to
// complete, expire, or be cancelled — the graceful-shutdown path
// cmd/pbsweep's serve mode takes on SIGINT/SIGTERM.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for {
		s.mu.Lock()
		s.reclaim(s.now())
		n := len(s.leases)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) leaseTTL() time.Duration {
	if s.LeaseTTL > 0 {
		return s.LeaseTTL
	}
	return 30 * time.Second
}

func (s *Server) retryMS() int64 {
	if s.RetryMS > 0 {
		return s.RetryMS
	}
	return 100
}

// buildJob expands a grid into a job skeleton: its batch, whose
// output-row layout is exactly the in-process engine's Records order. It
// touches no server state, so submission and journal replay build
// byte-identical layouts from one grid.
func buildJob(g sweep.Grid) (*job, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("serve: grid expanded to no runnable points")
	}
	b, err := sweep.NewBatch(pts)
	if err != nil {
		return nil, err
	}
	return &job{batch: b, rowsLeft: b.Rows(), log: make([]logEntry, 0, b.Rows()+1)}, nil
}

// handleSubmit expands a grid into a job. Store hits resolve
// immediately (their rows stream before the response returns); misses
// attach to singleflight runs, enqueueing new ones. With a journal
// attached, the submission is durable before it is acknowledged.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	// Strict: a typoed axis must not silently sweep the defaults.
	if err := decodeBody(r.Body, &req, true); err != nil {
		http.Error(w, fmt.Sprintf("serve: bad job request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Grid.CaptureProb {
		// Captured value streams are large, and a shared store must not
		// carry them. Table III runs stay on the batch engine.
		http.Error(w, "serve: capture_prob grids are batch-only (value streams are not served)", http.StatusBadRequest)
		return
	}
	j, err := buildJob(req.Grid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	s.nextJob++
	j.id = "j" + strconv.FormatUint(s.nextJob, 10)
	s.jobs[j.id] = j
	if s.journal != nil {
		// The submission record must be durable before any of its row
		// entries (journal order is replay order) and before the client
		// learns the job ID.
		g := req.Grid
		if err := s.journal.Append(JournalEntry{T: journalJob, Job: j.id, Grid: &g}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	cached, scheduled := s.resolveJob(j)
	s.mu.Unlock()
	points, rows := len(j.batch.Points()), j.batch.Rows()
	s.logf("serve: job %s: %d points, %d rows, %d cached, %d scheduled", j.id, points, rows, cached, scheduled)

	writeJSON(w, JobResponse{ID: j.id, Rows: rows, Points: points, Cached: cached, Runs: scheduled})
}

// resolveJob (mu held) resolves every output row of j not already in
// its log: store hits deliver immediately (in run order), misses attach
// the job as a waiter to singleflight runs. It finishes the job if
// nothing is left. Shared by submission (empty log) and journal
// recovery (log prefilled by replay).
func (s *Server) resolveJob(j *job) (cached, scheduled int) {
	if j.finished {
		return 0, 0
	}
	b := j.batch
	delivered := make(map[int]bool, len(j.log))
	for _, le := range j.log {
		if !le.done {
			delivered[le.pos] = true
		}
	}
	// An undelivered row whose inputs replay already loaded: the
	// predecessor crashed between a sharded point's last shard row and
	// its aggregate row. Emit such rows before resolving anything, so
	// only replayed inputs count; a row some resolution below completes
	// is emitted by deliver as usual.
	for pos := range b.Rows() {
		if delivered[pos] {
			continue
		}
		if rec, ok := b.Record(pos); ok {
			s.emitRow(j, pos, rec)
		}
	}
	for r, ru := range b.Runs() {
		if delivered[ru.Row] {
			continue
		}
		if s.resolveUnit(ru.Point, taskRef{j, r}) {
			cached++
		} else {
			scheduled++
		}
	}
	if j.rowsLeft == 0 && !j.finished {
		s.finishJob(j, "")
	}
	return cached, scheduled
}

// resolveUnit (mu held) resolves one executable unit against the two
// dedup layers: a store hit delivers ref's row immediately and reports
// true; a miss attaches ref to the in-flight singleflight run for the
// point, queueing a new one in its stream's gathering group if needed.
func (s *Server) resolveUnit(p sweep.Point, ref taskRef) bool {
	addr := resultAddr(p)
	if res, err := s.loadResult(addr); err == nil {
		s.deliver(ref, res)
		return true
	}
	// A missing — or corrupt, which falls through and re-simulates —
	// store entry schedules a run.
	ru := s.runs[addr]
	if ru == nil {
		ru = &run{addr: addr, point: p}
		s.runs[addr] = ru
		s.enqueue(ru)
	}
	ru.waiters = append(ru.waiters, ref)
	return false
}

// enqueue (mu held) adds a new run to its stream's gathering group,
// queueing a new group when the stream has none.
func (s *Server) enqueue(ru *run) {
	stream := ru.point.StreamPoint()
	g := s.open[stream]
	if g == nil {
		g = &group{stream: stream}
		s.open[stream] = g
		s.queue = append(s.queue, g)
	}
	g.runs = append(g.runs, ru)
}

// fix (mu held) closes g's membership: its dead runs leave, and its
// stream's later runs gather in a new group.
func (s *Server) fix(g *group) {
	if g.fixed {
		return
	}
	g.fixed = true
	if s.open[g.stream] == g {
		delete(s.open, g.stream)
	}
	kept := g.runs[:0]
	for _, ru := range g.runs {
		if len(ru.waiters) > 0 {
			kept = append(kept, ru)
		} else {
			s.forget(ru)
		}
	}
	g.runs = kept
}

// drop (mu held) discards a group none of whose runs is wanted.
func (s *Server) drop(g *group) {
	if s.open[g.stream] == g {
		delete(s.open, g.stream)
	}
	for _, ru := range g.runs {
		s.forget(ru)
	}
}

// forget (mu held) removes a finished or dead run from the address
// index, unless a newer run took its address.
func (s *Server) forget(ru *run) {
	if s.runs[ru.addr] == ru {
		delete(s.runs, ru.addr)
	}
}

// errNotStored marks a result the store does not hold: the common,
// cold case of every lookup, so it carries no per-point message.
var errNotStored = errors.New("result missing from store")

// loadResult fetches and decodes the result at a point's address (see
// resultAddr) from the store.
func (s *Server) loadResult(addr string) (*sim.Result, error) {
	data, ok := s.store.Get(addr)
	if !ok || len(data) == 0 {
		return nil, errNotStored
	}
	var res sim.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("result corrupt in store: %w", err)
	}
	return &res, nil
}

// AttachJournal opens the durable job journal at path, replays whatever
// a predecessor recorded — finished jobs reconstruct their streams for
// exactly-once client resume, open jobs re-resolve against the store
// and re-queue their unfinished points — and attaches the journal so
// this server's own decisions are recorded. Call once, before serving
// traffic.
func (s *Server) AttachJournal(path string) error {
	jn, entries, err := OpenJournal(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		jn.Close()
		return errors.New("serve: journal already attached")
	}
	// Replay with the journal detached: replayed emissions are already
	// in the file and must not be re-journaled.
	s.replay(entries)
	s.journal = jn
	for _, j := range s.jobsInOrder() {
		if j.finished {
			continue
		}
		cached, scheduled := s.resolveJob(j)
		s.logf("serve: journal: job %s recovered: %d/%d rows already streamed, %d cached, %d re-queued",
			j.id, len(j.log), j.batch.Rows(), cached, scheduled)
	}
	return nil
}

// replay (mu held, journal detached) reconstructs jobs from journal
// entries. Row content is recomputed from the store: a completion is
// persisted before its row is emitted (and emitted before it is
// journaled), so every journaled row's result is durably present — and
// rows are deterministic marshalings of deterministic results, so the
// rebuilt bytes equal the originals and resumed client streams see the
// identical entries.
func (s *Server) replay(entries []JournalEntry) {
	for _, e := range entries {
		switch e.T {
		case journalJob:
			if e.Grid == nil || s.jobs[e.Job] != nil {
				continue
			}
			j, err := buildJob(*e.Grid)
			if err != nil {
				s.logf("serve: journal: job %s unrecoverable: %v", e.Job, err)
				continue
			}
			j.id = e.Job
			if n, ok := jobSeq(e.Job); ok && n > s.nextJob {
				s.nextJob = n
			}
			s.jobs[j.id] = j
		case journalRow:
			j := s.jobs[e.Job]
			if j == nil || j.finished {
				continue
			}
			if err := s.replayRow(j, e); err != nil {
				// The journal promised this row to clients; a job that
				// cannot reproduce its promised stream fails rather than
				// silently renumbering it.
				s.finishJob(j, fmt.Sprintf("journal replay: %v", err))
			}
		case journalDone:
			if j := s.jobs[e.Job]; j != nil {
				s.finishJob(j, e.Err)
			}
		}
	}
}

// replayRow (mu held) re-emits one journaled row from the store,
// loading whatever results the row still needs. Journal order puts an
// aggregate row after its shard rows, so that is normally nothing; a
// straggler shard loads all the same.
func (s *Server) replayRow(j *job, e JournalEntry) error {
	if e.Seq != len(j.log) {
		return fmt.Errorf("row seq %d does not follow log length %d", e.Seq, len(j.log))
	}
	b := j.batch
	if e.Pos < 0 || e.Pos >= b.Rows() {
		return fmt.Errorf("row pos %d outside the %d-row layout", e.Pos, b.Rows())
	}
	for _, r := range b.Needs(e.Pos) {
		p := b.Runs()[r].Point
		res, err := s.loadResult(resultAddr(p))
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		b.Put(r, res)
	}
	rec, _ := b.Record(e.Pos)
	s.emitRow(j, e.Pos, rec)
	return nil
}

// jobsInOrder (mu held) returns jobs sorted by submission sequence, so
// recovery re-queues work in the order clients submitted it.
func (s *Server) jobsInOrder() []*job {
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := jobSeq(out[a].id)
		nb, _ := jobSeq(out[b].id)
		if na != nb {
			return na < nb
		}
		return out[a].id < out[b].id
	})
	return out
}

// jobSeq parses the numeric sequence out of a "jN" job ID.
func jobSeq(id string) (uint64, bool) {
	num, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return n, err == nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	var st JobStatus
	if j != nil {
		st = JobStatus{ID: j.id, Rows: j.batch.Rows(), Emitted: len(j.log), Done: j.finished, Error: j.errmsg}
	}
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleStream replays a job's log from the requested sequence number
// as NDJSON and then follows it live, flushing per entry, until the
// terminal Done entry is sent or the client goes away. A disconnect
// affects only this stream: the job runs on, and a reconnect with
// from=<next seq> resumes exactly-once delivery.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "serve: bad from", http.StatusBadRequest)
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	next := from
	for {
		s.mu.Lock()
		var batch []logEntry
		if next < len(j.log) {
			batch = j.log[next:len(j.log):len(j.log)]
		}
		finished := j.finished
		if j.notify == nil && !finished {
			j.notify = make(chan struct{})
		}
		notify := j.notify
		s.mu.Unlock()
		for _, e := range batch {
			if _, err := w.Write(e.line); err != nil {
				return
			}
			next++
			if e.done {
				if fl != nil {
					fl.Flush()
				}
				return
			}
		}
		if fl != nil && len(batch) > 0 {
			fl.Flush()
		}
		if finished {
			// The caller already consumed the terminal entry in an earlier
			// stream; nothing more will ever arrive.
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r.Body, &req, false); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	s.asked[req.Worker] = now
	g := s.nextGroup(now)
	if g == nil {
		s.mu.Unlock()
		writeJSON(w, LeaseResponse{Status: StatusIdle, RetryMS: s.retryMS()})
		return
	}
	s.nextLease++
	g.lease = s.nextLease
	g.worker = req.Worker
	g.deadline = now.Add(s.leaseTTL())
	s.leases[g.lease] = g
	resp := LeaseResponse{Status: StatusPoint, Lease: g.lease, Points: g.points(), TTLMS: s.leaseTTL().Milliseconds()}
	if len(g.progress) > 0 {
		// Ship the predecessor's progress: the new worker resumes at
		// this instruction count instead of restarting cold.
		resp.Checkpoint = g.progress
		resp.Instrs = g.progressInstrs
	}
	s.mu.Unlock()
	lead, n := resp.Points[0], len(resp.Points)
	if resp.Instrs > 0 {
		s.logf("serve: lease %d -> %s (%d points, %s) resumes @%d", resp.Lease, lead, n, req.Worker, resp.Instrs)
	} else {
		s.logf("serve: lease %d -> %s (%d points, %s)", resp.Lease, lead, n, req.Worker)
	}
	writeJSON(w, resp)
}

// nextGroup (mu held) takes the first live queued group off the queue
// and fixes its membership, after splitting queued groups while there
// are fewer of them than active workers. It returns nil when draining
// or when nothing is queued.
func (s *Server) nextGroup(now time.Time) *group {
	if s.draining {
		return nil
	}
	if n := s.activeWorkers(now); len(s.queue) < n {
		s.split(n)
	}
	for len(s.queue) > 0 {
		g := s.queue[0]
		s.queue = s.queue[1:]
		s.fix(g)
		if g.live() {
			return g
		}
		s.drop(g)
	}
	return nil
}

// activeWorkers (mu held) counts the workers that hold a lease or asked
// for one within the last lease TTL, forgetting those that did neither.
func (s *Server) activeWorkers(now time.Time) int {
	active := make(map[string]bool, len(s.asked))
	for name, t := range s.asked {
		if now.Sub(t) > s.leaseTTL() {
			delete(s.asked, name)
			continue
		}
		active[name] = true
	}
	for _, g := range s.leases {
		active[g.worker] = true
	}
	return len(active)
}

// split (mu held) splits the queued groups with the engine's rule
// (sweep.SplitGroups) until there are n of them or none can split. Only
// groups still gathering runs split — a fixed group's membership
// matches its progress checkpoint — and each becomes fixed groups that
// keep its queue position. The queue is shorter than n, so this walks
// only a handful of groups.
func (s *Server) split(n int) {
	var runs [][]*run
	gathering := make([]bool, len(s.queue))
	for i, g := range s.queue {
		if g.fixed {
			n--
			continue
		}
		gathering[i] = true
		s.fix(g)
		if len(g.runs) > 0 {
			runs = append(runs, g.runs)
		}
	}
	// SplitGroups keeps each group's parts contiguous and in order.
	parts := sweep.SplitGroups(runs, n)
	queue := make([]*group, 0, len(s.queue)+len(parts))
	for i, g := range s.queue {
		if !gathering[i] {
			queue = append(queue, g)
			continue
		}
		for covered := 0; covered < len(g.runs); parts = parts[1:] {
			covered += len(parts[0])
			queue = append(queue, &group{stream: g.stream, runs: parts[0], fixed: true})
		}
	}
	s.queue = queue
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := decodeBody(r.Body, &req, false); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	g := s.leases[req.Lease]
	// A group none of whose runs is wanted any more (all their jobs
	// failed) is cancelled: tell the worker to stop burning cycles on it.
	if g == nil || !g.live() {
		s.mu.Unlock()
		writeJSON(w, RenewResponse{Status: StatusGone})
		return
	}
	g.deadline = now.Add(s.leaseTTL())
	progressed := s.progress(g, req.Checkpoint, req.Instrs)
	lead := g.runs[0].point
	s.mu.Unlock()
	if progressed {
		s.logf("serve: progress %s @%d", lead, req.Instrs)
	}
	writeJSON(w, RenewResponse{Status: StatusOK, TTLMS: s.leaseTTL().Milliseconds()})
}

// progress (mu held) keeps a group's newer progress checkpoint and
// reports whether it did. Replace-on-higher-count: a stale renewal
// (delayed, duplicated, or from a worker that fell behind) never
// regresses progress.
func (s *Server) progress(g *group, ck []byte, instrs uint64) bool {
	if len(ck) == 0 || instrs <= g.progressInstrs {
		return false
	}
	g.progress, g.progressInstrs = ck, instrs
	return true
}

// handleRelease hands a lease back voluntarily — the graceful half of
// lease expiry, used by draining workers. The group returns to the
// queue with the released checkpoint as its progress, so the next
// worker continues instead of restarting.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := decodeBody(r.Body, &req, false); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	g := s.leases[req.Lease]
	if g == nil {
		s.mu.Unlock()
		writeJSON(w, ReleaseResponse{Status: StatusGone})
		return
	}
	s.progress(g, req.Checkpoint, req.Instrs)
	if s.requeue(g) {
		s.logf("serve: lease %d on %s released @%d; re-queueing", req.Lease, g.runs[0].point, g.progressInstrs)
	}
	s.mu.Unlock()
	writeJSON(w, ReleaseResponse{Status: StatusOK})
}

// requeue (mu held) ends g's lease and puts the group back in the
// queue, progress and all, or drops it when none of its runs is wanted
// any more. It reports whether the group was re-queued.
func (s *Server) requeue(g *group) bool {
	delete(s.leases, g.lease)
	g.lease = 0
	if !g.live() {
		s.drop(g)
		return false
	}
	s.queue = append(s.queue, g)
	return true
}

// handleComplete records a finished group, member by member. A member
// is matched to its run by address, not by lease, so a result that
// arrives after its lease expired (and may have been re-leased) is
// still a valid, deterministic completion of the point.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeBody(r.Body, &req, false); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Members) == 0 {
		http.Error(w, "serve: completion carries no members", http.StatusBadRequest)
		return
	}
	for _, m := range req.Members {
		if (m.Error == "") == (m.Result == nil) {
			http.Error(w, fmt.Sprintf("serve: completion of %s carries neither or both of result and error", m.Point), http.StatusBadRequest)
			return
		}
	}
	s.mu.Lock()
	g := s.leases[req.Lease]
	if g != nil {
		delete(s.leases, req.Lease)
		g.lease = 0
	}
	accepted := g != nil
	for _, m := range req.Members {
		addr := resultAddr(m.Point)
		ru := s.runs[addr]
		if ru == nil {
			// Persist even an orphaned success: the work is done, let the
			// store remember it. (A duplicated completion delivery lands
			// here too; Put is first-write-wins, so it is a no-op.)
			if m.Result != nil {
				if data, err := json.Marshal(m.Result); err == nil {
					s.store.Put(addr, data)
				}
			}
			continue
		}
		accepted = true
		s.forget(ru)
		waiters := ru.waiters
		ru.waiters = nil
		if m.Error == "" {
			// Persist before delivering: a journaled row entry implies its
			// result is durably in the store, which is what lets a
			// restarted server rebuild the row byte-for-byte. A result the
			// store cannot keep fails its jobs instead.
			data, err := json.Marshal(m.Result)
			if err == nil {
				err = s.store.Put(addr, data)
			}
			if err == nil {
				for _, ref := range waiters {
					s.deliver(ref, m.Result)
				}
				continue
			}
			m.Error = fmt.Sprintf("%s: %v", ru.point, err)
		}
		for _, ref := range waiters {
			s.failJob(ref.job, m.Error)
		}
		s.logf("serve: run %s failed: %s", ru.point, m.Error)
	}
	if g != nil {
		// A member the worker did not report runs again if it is still
		// wanted.
		for _, ru := range g.runs {
			switch {
			case s.runs[ru.addr] != ru:
			case len(ru.waiters) > 0:
				s.enqueue(ru)
			default:
				s.forget(ru)
			}
		}
	}
	s.mu.Unlock()
	status := StatusOK
	if !accepted {
		status = StatusGone
	}
	writeJSON(w, CompleteResponse{Status: status})
}

// reclaim (mu held) re-queues the groups whose leases expired, or drops
// them when none of their runs is wanted any more.
func (s *Server) reclaim(now time.Time) {
	for id, g := range s.leases {
		if !g.deadline.Before(now) {
			continue
		}
		if s.requeue(g) {
			s.logf("serve: lease %d on %s expired; re-queueing (progress @%d)", id, g.runs[0].point, g.progressInstrs)
		}
	}
}

// deliver (mu held) records one completed run in a job, emitting the
// rows it completes — its own and, when it is a sharded point's last
// shard, the merged aggregate row — and finishing the job when every
// row is out.
func (s *Server) deliver(ref taskRef, res *sim.Result) {
	j := ref.job
	if j.finished {
		return
	}
	for _, pos := range j.batch.Put(ref.run, res) {
		rec, _ := j.batch.Record(pos)
		s.emitRow(j, pos, rec)
	}
	if j.rowsLeft == 0 {
		s.finishJob(j, "")
	}
}

// emitRow (mu held) appends one record row to the job's stream log,
// encoded into its stream line, and journals the delivery.
func (s *Server) emitRow(j *job, pos int, rec sweep.Record) {
	s.rowRec = rec
	s.rowBuf.Reset()
	if err := s.rowEnc.Encode(&s.rowRec); err != nil {
		// A Record is a plain struct of scalars; marshal cannot fail.
		// Keep the job consistent anyway.
		s.failJob(j, fmt.Sprintf("marshal record: %v", err))
		return
	}
	row := bytes.TrimSuffix(s.rowBuf.Bytes(), []byte("\n"))
	seq := len(j.log)
	line := appendRowLine(make([]byte, 0, len(row)+48), seq, pos, row)
	j.log = append(j.log, logEntry{line: line, pos: pos})
	j.rowsLeft--
	if s.journal != nil {
		if err := s.journal.Append(JournalEntry{T: journalRow, Job: j.id, Seq: seq, Pos: pos}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	j.wake()
}

// wake (mu held) wakes the streams waiting for the job's next entry.
func (j *job) wake() {
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

// finishJob (mu held) appends the terminal stream entry.
func (s *Server) finishJob(j *job, errmsg string) {
	if j.finished {
		return
	}
	j.finished = true
	j.errmsg = errmsg
	// Once per job, so the terminal line goes through encoding/json.
	line, _ := json.Marshal(StreamEntry{Seq: len(j.log), Done: true, Rows: j.batch.Rows(), Err: errmsg})
	j.log = append(j.log, logEntry{line: append(line, '\n'), done: true})
	if s.journal != nil {
		if err := s.journal.Append(JournalEntry{T: journalDone, Job: j.id, Seq: len(j.log) - 1, Err: errmsg}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	j.wake()
}

// failJob (mu held) fails a job and cancels its share of outstanding
// work: its waiters leave every run, so queued groups drop the runs it
// alone was waiting on, and a leased group left with no wanted run
// answers its next renewal with StatusGone.
func (s *Server) failJob(j *job, errmsg string) {
	if j.finished {
		return
	}
	s.finishJob(j, errmsg)
	for _, ru := range s.runs {
		ru.waiters = slices.DeleteFunc(ru.waiters, func(ref taskRef) bool { return ref.job == j })
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

const (
	serveWorkers   = 1
	serveMaxInstrs = 50_000
	// serveRetryMS is the idle-poll interval the server suggests to
	// workers. The default 100ms would leave workers asleep for up to
	// 150ms when a job lands, a large slice of a grid that simulates in
	// well under a second.
	serveRetryMS = 5
)

// serveLoopback runs a sweep server with a memory store on a loopback
// listener, a worker on the synchronous timing path, and one client. Each pass starts a fresh server, collects
// a grid of many short points cold, then resubmits the same grid, which
// the store answers entirely. One worker rather than one per CPU: two
// made the figure follow the load other tenants put on both CPUs of a
// shared host.
type serveLoopback struct {
	seed  uint64
	progs *sweep.ProgramCache
}

func (s *serveLoopback) grid() sweep.Grid {
	return sweep.Grid{
		Workloads:  workloads.Names(),
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		PBS:        []bool{false, true},
		Widths:     []int{4, 8},
		Seeds:      []uint64{s.seed, s.seed + 1},
		MaxInstrs:  serveMaxInstrs,
	}
}

func (s *serveLoopback) setup() (setupTimes, error) {
	var st setupTimes
	pc, err := setupCache(&st)
	if err == nil {
		s.progs = pc
	}
	return st, err
}

// servePass is what one server lifetime produced.
type servePass struct {
	cold, cached     []byte // records as sweep.WriteRecordsJSON writes them
	instrs           uint64
	points, rows     int
	submit, firstRow float64 // resubmission: seconds to the job response, to the first row
	cachedSecs       float64
	resubmit         serve.JobResponse
}

// pass runs one server lifetime as a span on track, with the cold
// collect and the resubmission as its children. wrap, when set, wraps
// the transports the workers and the client send through (the traced
// run times requests there).
func (s *serveLoopback) pass(track *Track, wrap func(http.RoundTripper) http.RoundTripper) (*servePass, error) {
	track.Begin("serve.pass")
	defer track.End()
	srv := serve.NewServer(serve.NewMemStore())
	srv.RetryMS = serveRetryMS
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: 16}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		hs.Close()
		<-served
		transport.CloseIdleConnections()
	}()

	var rt http.RoundTripper = transport
	if wrap != nil {
		rt = wrap(transport)
	}
	for i := range serveWorkers {
		w := &serve.Worker{
			Server:     base,
			Name:       fmt.Sprintf("w%d", i),
			HTTP:       &http.Client{Transport: rt},
			Programs:   s.progs,
			SyncTiming: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) // returns ctx's error once the pass cancels it
		}()
	}
	client := &serve.Client{Server: base, HTTP: &http.Client{Transport: rt}}
	g := s.grid()
	p := &servePass{}

	track.Begin("serve.collect_cold")
	recs, err := client.Collect(ctx, g, nil)
	track.End()
	if err != nil {
		return nil, fmt.Errorf("cold collect: %w", err)
	}
	if p.cold, err = recordsJSON(recs); err != nil {
		return nil, err
	}
	for _, r := range recs {
		if !r.Aggregate {
			p.points++
			p.instrs += r.Instructions
		}
	}

	// The resubmission goes through Submit and Stream rather than Collect
	// so the job response (Runs, Cached) and the first row can be timed.
	track.Begin("serve.resubmit")
	defer track.End()
	t0 := time.Now()
	jr, err := client.Submit(ctx, g)
	p.submit = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("resubmit: %w", err)
	}
	p.resubmit = jr
	rows := make([]json.RawMessage, jr.Rows)
	err = client.Stream(ctx, jr.ID, 0, func(e serve.StreamEntry) error {
		if e.Done {
			if e.Err != "" {
				return errors.New(e.Err)
			}
			return nil
		}
		if p.firstRow == 0 {
			p.firstRow = time.Since(t0).Seconds()
		}
		if e.Pos < 0 || e.Pos >= len(rows) {
			return fmt.Errorf("row position %d outside %d rows", e.Pos, len(rows))
		}
		rows[e.Pos] = e.Row
		return nil
	})
	p.cachedSecs = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("cached stream: %w", err)
	}
	cached := make([]sweep.Record, len(rows))
	for i, row := range rows {
		if err := json.Unmarshal(row, &cached[i]); err != nil {
			return nil, fmt.Errorf("cached row %d: %w", i, err)
		}
	}
	p.rows = len(rows)
	if p.cached, err = recordsJSON(cached); err != nil {
		return nil, err
	}
	return p, nil
}

func recordsJSON(recs []sweep.Record) ([]byte, error) {
	var buf bytes.Buffer
	err := sweep.WriteRecordsJSON(&buf, recs)
	return buf.Bytes(), err
}

// check fails a pass whose resubmission ran anything or whose records
// differ between the cold collect, the cached resubmission and the
// in-process engine.
func (p *servePass) check(ref []byte) error {
	switch {
	case p.resubmit.Runs != 0:
		return fmt.Errorf("resubmission scheduled %d runs, want 0", p.resubmit.Runs)
	case !bytes.Equal(p.cached, p.cold):
		return fmt.Errorf("cached records differ from the cold collect's")
	case !bytes.Equal(p.cold, ref):
		return fmt.Errorf("served records differ from the in-process sweep.Engine's")
	}
	return nil
}

// reference runs the grid through an in-process sweep.Engine.
func (s *serveLoopback) reference() ([]byte, error) {
	e := &sweep.Engine{Programs: s.progs, Results: sweep.NewResultCache()}
	res, err := e.Run(context.Background(), s.grid())
	if err != nil {
		return nil, err
	}
	return recordsJSON(res.Records())
}

func (s *serveLoopback) run(budget time.Duration, c *runLog) (figures, error) {
	ref, err := s.reference()
	if err != nil {
		return figures{}, fmt.Errorf("in-process reference: %w", err)
	}
	track := NewTracer(0).Track()
	items := []item{{key: "serve", run: func() (outcome, error) {
		p, err := s.pass(track, nil)
		if err != nil {
			return outcome{}, err
		}
		if err := p.check(ref); err != nil {
			return outcome{points: p.points}, err
		}
		return outcome{instrs: p.instrs, points: p.points, fingerprint: string(p.cold)}, nil
	}}}
	m := startMeter()
	l := runLoop(items, budget, c)
	m.stop()
	return l.figures(m), nil
}

// timedTransport times the requests a worker (or the client) sends,
// recording each as a leaf span by endpoint. Lease and job-submission
// responses are read through to count empty leases and keep the job
// responses. Safe for concurrent use: a worker renews from a second
// goroutine.
type timedTransport struct {
	base  http.RoundTripper
	track *Track
	stats *serveStats
}

// serveStats accumulates what the timed transports saw; mu guards it
// and the track the transports record on.
type serveStats struct {
	mu              sync.Mutex
	lease, complete []float64 // milliseconds
	requests        int       // worker requests
	emptyLeases     int
	jobs            []serve.JobResponse
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	worker := path != "/v1/jobs" && !strings.HasPrefix(path, "/v1/jobs/")
	t0 := t.track.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	var body []byte
	if path == "/v1/lease" || path == "/v1/jobs" {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t1 := t.track.Now()
	ms := float64(t1-t0) / 1e6

	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if worker {
		t.track.Leaf(t.track.Agg("serve"+path), t0, t1)
		t.stats.requests++
	}
	switch path {
	case "/v1/lease":
		t.stats.lease = append(t.stats.lease, ms)
		var lr serve.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Status != serve.StatusPoint {
			t.stats.emptyLeases++
		}
	case "/v1/complete":
		t.stats.complete = append(t.stats.complete, ms)
	case "/v1/jobs":
		var jr serve.JobResponse
		if json.Unmarshal(body, &jr) == nil {
			t.stats.jobs = append(t.stats.jobs, jr)
		}
	}
	return resp, nil
}

func (s *serveLoopback) trace(budget time.Duration, c *runLog, tr *Tracer) (map[string]float64, error) {
	ref, err := s.reference()
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	var (
		client, workers  = tr.Track(), tr.Track()
		st               serveStats
		first            *servePass
		untraced         float64
		submit, firstRow []float64
		cachedRate       []float64
	)
	wrap := func(base http.RoundTripper) http.RoundTripper {
		return &timedTransport{base: base, track: workers, stats: &st}
	}
	untracedTrack := NewTracer(0).Track()
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start) < budget; passes++ {
		t0 := time.Now()
		u, err := s.pass(untracedTrack, nil)
		untraced += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		c.attempted += u.points
		p, err := s.pass(client, wrap)
		if err != nil {
			return nil, err
		}
		if err := p.check(ref); err != nil {
			c.fail(p.points, "serve pass: %v", err)
		}
		if first == nil {
			first = p
		}
		submit = append(submit, p.submit*1e3)
		firstRow = append(firstRow, p.firstRow*1e3)
		cachedRate = append(cachedRate, float64(p.rows)/p.cachedSecs)
	}
	if len(st.jobs) < 1 {
		return nil, fmt.Errorf("no job submission seen")
	}
	root := tr.Aggs()["serve.pass"]
	traced := float64(root.Total) / 1e9
	return map[string]float64{
		"serve.lease_ms_p50":       median(st.lease),
		"serve.complete_ms_p50":    median(st.complete),
		"serve.requests_per_point": float64(st.requests) / float64(max(len(st.complete), 1)),
		"serve.empty_leases":       float64(st.emptyLeases) / float64(passes),
		"serve.submit_ms":          median(submit),
		"serve.first_row_ms":       median(firstRow),
		"serve.cached":             float64(first.resubmit.Cached),
		"serve.runs":               float64(st.jobs[0].Runs),
		"serve.cached_rows_per_s":  median(cachedRate),
		"traced.overhead_pct":      (traced - untraced) / untraced * 100,
		"unattributed.share":       float64(root.Self) / float64(root.Total),
		"emu.instrs":               float64(first.instrs),
	}, nil
}

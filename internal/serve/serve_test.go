package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// smokeGrids is the distributed acceptance suite: 13 points spanning
// workloads, predictors, PBS on/off, filtering, seed-sharded aggregates
// and warm-prefix groups — the service-side analogue of the 13-config
// golden grid. Budgets keep each run small; identity, not magnitude, is
// what the test pins.
func smokeGrids() []sweep.Grid {
	return []sweep.Grid{
		{ // 8 points: 2 workloads × 2 predictors × PBS on/off
			Workloads:  []string{"PI", "DOP"},
			Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
			PBS:        []bool{false, true},
			Seeds:      []uint64{1},
			MaxInstrs:  60_000,
		},
		{ // 2 points: predictor-filter interference on and off
			Workloads:  []string{"MC-integ"},
			Seeds:      []uint64{23},
			FilterProb: []bool{false, true},
			MaxInstrs:  60_000,
		},
		{ // 1 aggregate point: per-seed shards + mean/CI row
			Workloads:  []string{"Genetic"},
			Seeds:      []uint64{3, 5, 7},
			ShardSeeds: true,
			PBS:        []bool{true},
			MaxInstrs:  60_000,
		},
		{ // 2 points differing only in timing axes: one shared warm prefix
			Workloads:  []string{"PI"},
			Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
			Seeds:      []uint64{11},
			WarmPrefix: 20_000,
			MaxInstrs:  80_000,
		},
	}
}

// batchOutputs runs the grids on the in-process engine and serializes
// each with both writers.
func batchOutputs(t *testing.T, grids []sweep.Grid) (jsons, csvs [][]byte) {
	t.Helper()
	eng := &sweep.Engine{}
	for _, g := range grids {
		res, err := eng.Run(context.Background(), g)
		if err != nil {
			t.Fatalf("batch run: %v", err)
		}
		var j, c bytes.Buffer
		if err := sweep.WriteRecordsJSON(&j, res.Records()); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteRecordsCSV(&c, res.Records()); err != nil {
			t.Fatal(err)
		}
		jsons = append(jsons, j.Bytes())
		csvs = append(csvs, c.Bytes())
	}
	return jsons, csvs
}

// startServer wires a Server over httptest and returns it with its
// client-facing base URL.
func startServer(t *testing.T, srv *Server) (*httptest.Server, string) {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, hs.URL
}

// startWorkers launches n pull workers against the server and returns a
// stop function that shuts them down and waits for them to exit.
func startWorkers(t *testing.T, base string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	progs := sweep.NewProgramCache()
	for i := range n {
		w := &Worker{Server: base, Name: fmt.Sprintf("w%d", i), Programs: progs, Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// TestServeMatchesBatch is the acceptance smoke: one server, two
// workers, the 13-point grid suite — every job's reassembled stream
// must serialize byte-identically (JSON and CSV) to the in-process
// batch engine, each record streamed exactly once.
func TestServeMatchesBatch(t *testing.T) {
	grids := smokeGrids()
	wantJSON, wantCSV := batchOutputs(t, grids)

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	startWorkers(t, base, 2)

	c := &Client{Server: base}
	for i, g := range grids {
		seen := make(map[int]bool)
		recs, err := c.Collect(context.Background(), g, func(done, total int) {
			if seen[done] {
				t.Errorf("grid %d: progress %d reported twice (duplicate row delivery)", i, done)
			}
			seen[done] = true
		})
		if err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		var j, cv bytes.Buffer
		if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteRecordsCSV(&cv, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j.Bytes(), wantJSON[i]) {
			t.Errorf("grid %d: streamed JSON differs from batch engine output\n serve: %s\n batch: %s",
				i, firstDiff(j.Bytes(), wantJSON[i]), "")
		}
		if !bytes.Equal(cv.Bytes(), wantCSV[i]) {
			t.Errorf("grid %d: streamed CSV differs from batch engine output\n%s", i, firstDiff(cv.Bytes(), wantCSV[i]))
		}
	}
}

// firstDiff renders the first divergent region of two byte strings.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			lo := max(0, i-80)
			return fmt.Sprintf("at byte %d:\n  got  ...%q\n  want ...%q", i, a[lo:min(len(a), i+80)], b[lo:min(len(b), i+80)])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestResubmitServesFromStore checks the dedup layer at rest: after a
// grid completes, re-submitting an overlapping grid is answered
// entirely from the content-addressed store — no worker attached, and
// the records still match the batch engine's bytes.
func TestResubmitServesFromStore(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{1, 2}, MaxInstrs: 50_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	stop := startWorkers(t, base, 1)

	c := &Client{Server: base}
	if _, err := c.Collect(context.Background(), g, nil); err != nil {
		t.Fatal(err)
	}
	stop() // no workers from here on

	// The overlap: one seed already computed, plus the whole original.
	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Cached != 2 || jr.Runs != 0 {
		t.Errorf("resubmit scheduled work: cached %d, runs %d; want 2, 0", jr.Cached, jr.Runs)
	}
	recs, err := c.Collect(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("resubmit with no workers: %v", err)
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("store-served records differ from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

// TestSubmitRejectsUnknownGridField: a typoed axis name is a 400 naming
// the field, not a job over the default axis (every workload).
func TestSubmitRejectsUnknownGridField(t *testing.T) {
	_, base := startServer(t, NewServer(NewMemStore()))
	body := `{"grid":{"workload":["PI"],"seeds":[1],"skip_timing":true}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `"workload"`) {
		t.Errorf("typoed grid field: status %d, body %q; want 400 naming \"workload\"", resp.StatusCode, msg)
	}
}

// TestServerRestartServesFromStore checks persistence: a fresh server
// process over the same store directory answers a previously computed
// grid without any worker.
func TestServerRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{5}, MaxInstrs: 50_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(store1)
	srv1.RetryMS = 5
	hs1, base1 := startServer(t, srv1)
	stop := startWorkers(t, base1, 1)
	if _, err := (&Client{Server: base1}).Collect(context.Background(), g, nil); err != nil {
		t.Fatal(err)
	}
	stop()
	hs1.Close()

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2)
	_, base2 := startServer(t, srv2)
	recs, err := (&Client{Server: base2}).Collect(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("restarted server with no workers: %v", err)
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("restart-served records differ from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

// TestServeWarmPrefixHaltInsidePrefix is the service side of the
// engine's TestWarmPrefixHaltInsidePrefix: the program halts before the
// prefix ends, so the group runs cold, and the output is byte-identical
// to the in-process engine's.
func TestServeWarmPrefixHaltInsidePrefix(t *testing.T) {
	g := sweep.Grid{
		Workloads:  []string{"Photon"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		PBS:        []bool{true},
		Seeds:      []uint64{7},
		WarmPrefix: 1 << 40, // far past the program's natural halt
	}
	wantJSON, wantCSV := batchOutputs(t, []sweep.Grid{g})

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	startWorkers(t, base, 1)

	recs, err := (&Client{Server: base}).Collect(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var j, cv bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteRecordsCSV(&cv, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("streamed JSON differs from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
	if !bytes.Equal(cv.Bytes(), wantCSV[0]) {
		t.Errorf("streamed CSV differs from batch output\n%s", firstDiff(cv.Bytes(), wantCSV[0]))
	}
}

// TestStoreRoundTrip covers the store's basics: immutability, zero-byte
// entries, persistence across reopen.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr("result", "x")
	if _, ok := s.Get(a); ok {
		t.Error("empty store reported a hit")
	}
	if err := s.Put(a, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(a); !ok || string(data) != "one" {
		t.Errorf("entry not immutable: %q, %v", data, ok)
	}
	cold := Addr("warm", "x")
	if err := s.Put(cold, nil); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(cold); !ok || len(data) != 0 {
		t.Errorf("zero-byte entry lost: %q, %v", data, ok)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := re.Get(a); !ok || string(data) != "one" {
		t.Errorf("entry did not persist across reopen: %q, %v", data, ok)
	}
	if data, ok := re.Get(cold); !ok || len(data) != 0 {
		t.Errorf("zero-byte entry did not persist: %q, %v", data, ok)
	}
	if Addr("result", "x") == Addr("warm", "x") {
		t.Error("address namespaces collide")
	}
}

// TestSampledGridDedup covers sampled timing through the service: a
// sampled grid streams rows byte-identical (JSON and CSV, CI columns
// included) to the in-process engine, and re-submitting the same grid
// is answered entirely from the content-addressed store — zero extra
// simulation. A full-timing grid of the same coordinates must NOT
// share those entries: its estimate-free rows are distinct identities.
func TestSampledGridDedup(t *testing.T) {
	g := sweep.Grid{
		Workloads:      []string{"PI"},
		Seeds:          []uint64{1, 2},
		SampleWindow:   10_007,
		SamplePeriod:   50_021,
		SampleWarmup:   20_011,
		SampleFuncWarm: true,
	}
	wantJSON, wantCSV := batchOutputs(t, []sweep.Grid{g})

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	stop := startWorkers(t, base, 2)

	c := &Client{Server: base}
	recs, err := c.Collect(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var j, cv bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteRecordsCSV(&cv, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("streamed sampled JSON differs from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
	if !bytes.Equal(cv.Bytes(), wantCSV[0]) {
		t.Errorf("streamed sampled CSV differs from batch output\n%s", firstDiff(cv.Bytes(), wantCSV[0]))
	}
	stop() // no workers from here on

	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Cached != 2 || jr.Runs != 0 {
		t.Errorf("sampled resubmit scheduled work: cached %d, runs %d; want 2, 0", jr.Cached, jr.Runs)
	}
	recs2, err := c.Collect(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("sampled resubmit with no workers: %v", err)
	}
	var j2 bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j2, recs2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j2.Bytes(), wantJSON[0]) {
		t.Errorf("store-served sampled records differ\n%s", firstDiff(j2.Bytes(), wantJSON[0]))
	}

	// Same coordinates, sampling off: a different identity that must
	// schedule fresh runs rather than reuse the sampled entries.
	full := g
	full.SampleWindow, full.SamplePeriod, full.SampleWarmup, full.SampleFuncWarm = 0, 0, 0, false
	full.MaxInstrs = 50_000 // keep the workerless check cheap: never runs
	jrFull, err := c.Submit(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if jrFull.Cached != 0 || jrFull.Runs != 2 {
		t.Errorf("full grid reused sampled entries: cached %d, runs %d; want 0, 2", jrFull.Cached, jrFull.Runs)
	}
}

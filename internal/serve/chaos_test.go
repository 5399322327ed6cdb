package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// logBuf captures server log lines so tests can assert protocol events
// (progress uploads, resumed leases, journal recovery) actually
// happened rather than inferring them.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuf) logf(format string, args ...any) {
	b.mu.Lock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *logBuf) contains(sub string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds or the timeout lapses.
func waitFor(t *testing.T, cond func() bool, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serveAt runs the server's handler on a fixed address (pass
// "127.0.0.1:0" for the first launch, the returned address to restart
// in place), so clients and workers survive a restart by retrying the
// same URL. The just-closed port can linger briefly; listening retries.
func serveAt(t *testing.T, srv *Server, addr string) (*http.Server, string) {
	t.Helper()
	var l net.Listener
	var err error
	for range 300 {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })
	return hs, "http://" + l.Addr().String()
}

// migrationWorker builds a worker tuned to surface mid-point progress
// fast: tiny chunks, near-continuous progress checkpoints.
func migrationWorker(base, name string) *Worker {
	return &Worker{
		Server:        base,
		Name:          name,
		Programs:      sweep.NewProgramCache(),
		Poll:          5 * time.Millisecond,
		Chunk:         4096,
		ProgressEvery: time.Millisecond,
	}
}

// TestMigrationResumesByteIdentical pins the tentpole end to end: a
// worker checkpoints mid-point via renewals and is then killed without
// ceremony; after lease expiry the point re-leases to a fresh worker
// WITH the checkpoint, the server log proves the resume happened, and
// the job's output is byte-identical to an uninterrupted batch run —
// the checkpoint determinism invariant (DESIGN §7) carried across a
// worker migration.
func TestMigrationResumesByteIdentical(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{21}, MaxInstrs: 500_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	lb := &logBuf{}
	srv := NewServer(NewMemStore())
	// Short enough that the killed worker's point re-leases quickly,
	// long enough that a healthy worker's renew cadence clears it even
	// when the race detector (on few cores) slows everything down.
	srv.LeaseTTL = 3 * time.Second
	srv.RetryMS = 5
	srv.Logf = lb.logf
	_, base := startServer(t, srv)

	c := &Client{Server: base}
	var recs []sweep.Record
	var cerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		recs, cerr = c.Collect(context.Background(), g, nil)
	}()

	// The victim: runs the point in tiny chunks, posting a progress
	// checkpoint on practically every one.
	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	go migrationWorker(base, "victim").Run(vctx)

	// Once the server holds a mid-point checkpoint, kill the victim
	// hard — no release, no completion, exactly like a crashed host.
	waitFor(t, func() bool { return lb.contains("serve: progress ") }, 30*time.Second, "a progress checkpoint to land")
	vcancel()

	// The successor picks the point up after the TTL and must resume it.
	startWorkers(t, base, 1)
	<-done
	if cerr != nil {
		t.Fatalf("collect across the migration: %v", cerr)
	}
	if !lb.contains("resumes @") {
		t.Fatal("no re-lease shipped a checkpoint; the point restarted cold instead of migrating")
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("migrated run differs from uninterrupted batch run\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

// TestDrainReleasesProgress pins the graceful half of migration: a
// drained worker checkpoints its in-flight point, hands checkpoint and
// lease back via /v1/release (no TTL wait), exits cleanly, and the
// successor resumes to a byte-identical result.
func TestDrainReleasesProgress(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"DOP"}, Seeds: []uint64{17}, MaxInstrs: 500_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	lb := &logBuf{}
	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	srv.Logf = lb.logf
	_, base := startServer(t, srv)

	c := &Client{Server: base}
	var recs []sweep.Record
	var cerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		recs, cerr = c.Collect(context.Background(), g, nil)
	}()

	v := migrationWorker(base, "draining")
	runErr := make(chan error, 1)
	go func() { runErr <- v.Run(context.Background()) }()

	waitFor(t, func() bool { return lb.contains("serve: progress ") }, 30*time.Second, "a progress checkpoint to land")
	v.Drain()
	if err := <-runErr; err != nil {
		t.Fatalf("drained worker exited with %v, want nil", err)
	}
	if !lb.contains("released") {
		t.Fatal("drain did not release the lease back to the server")
	}

	startWorkers(t, base, 1)
	<-done
	if cerr != nil {
		t.Fatalf("collect across the drain handoff: %v", cerr)
	}
	if !lb.contains("resumes @") {
		t.Fatal("the released checkpoint was not shipped on re-lease")
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("drain-migrated run differs from uninterrupted batch run\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

// TestServerRestartReplaysJournal pins the durable journal end to end:
// a server dies mid-job; its successor — same store, same journal —
// rebuilds the job, replays the already-delivered rows byte-for-byte
// under their original sequence numbers, re-queues the unfinished
// points, and a client that reconnects with from=<next> receives
// exactly the entries it was owed.
func TestServerRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	g := sweep.Grid{Workloads: []string{"PI", "DOP"}, Seeds: []uint64{1, 2, 3}, MaxInstrs: 50_000} // 6 points
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(store1)
	srv1.RetryMS = 5
	if err := srv1.AttachJournal(jpath); err != nil {
		t.Fatal(err)
	}
	hs1, base1 := serveAt(t, srv1, "127.0.0.1:0")
	addr := strings.TrimPrefix(base1, "http://")
	stop1 := startWorkers(t, base1, 1)

	c1 := &Client{Server: base1}
	jr, err := c1.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	// Consume part of the stream, then the server "crashes".
	var before []StreamEntry
	sctx, scancel := context.WithCancel(context.Background())
	c1.Stream(sctx, jr.ID, 0, func(e StreamEntry) error {
		before = append(before, e)
		if len(before) >= 3 {
			scancel()
		}
		return nil
	})
	scancel()
	if len(before) < 3 {
		t.Fatalf("got %d entries before the crash, want at least 3", len(before))
	}
	before = before[:3]
	stop1()
	hs1.Close()

	// The successor: same store directory, same journal.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lb := &logBuf{}
	srv2 := NewServer(store2)
	srv2.RetryMS = 5
	srv2.Logf = lb.logf
	if err := srv2.AttachJournal(jpath); err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if !lb.contains("recovered") {
		t.Fatal("the successor did not recover the open job from the journal")
	}
	_, base2 := serveAt(t, srv2, addr)
	startWorkers(t, base2, 1)
	c2 := &Client{Server: base2}

	// Resume exactly where the dead server left this client: from=3.
	entries := append([]StreamEntry(nil), before...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c2.Stream(ctx, jr.ID, len(before), func(e StreamEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatalf("resumed stream: %v", err)
	}

	// The full entry sequence must assemble the batch engine's bytes.
	last := entries[len(entries)-1]
	if !last.Done || last.Err != "" {
		t.Fatalf("terminal entry done=%v err=%q, want clean completion", last.Done, last.Err)
	}
	rows := make([]json.RawMessage, last.Rows)
	for _, e := range entries[:len(entries)-1] {
		rows[e.Pos] = e.Row
	}
	recs, err := decodeRows(rows, len(entries)-1, last.Rows, true)
	if err != nil {
		t.Fatal(err)
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("restart-spanning stream differs from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}

	// And the replayed prefix is byte-identical to what the dead server
	// sent: a client that re-reads from 0 sees the same first entries.
	var replayed []StreamEntry
	rctx, rcancel := context.WithCancel(context.Background())
	c2.Stream(rctx, jr.ID, 0, func(e StreamEntry) error {
		replayed = append(replayed, e)
		if len(replayed) >= len(before) {
			rcancel()
		}
		return nil
	})
	rcancel()
	if len(replayed) < len(before) {
		t.Fatalf("replay from 0 yielded %d entries, want at least %d", len(replayed), len(before))
	}
	for i, want := range before {
		got := replayed[i]
		if got.Seq != want.Seq || got.Pos != want.Pos || !bytes.Equal(got.Row, want.Row) {
			t.Errorf("replayed entry %d differs from the original delivery:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

// TestReplayEmitsMissingAggregateRow pins recovery of a crash between
// a sharded point's last shard row and its aggregate row: the journal
// records every shard row but not the merge. With every shard result
// already in the store and no worker attached, the successor must emit
// the aggregate row at its layout position, run nothing, and finish the
// job with records byte-identical to the in-process engine.
func TestReplayEmitsMissingAggregateRow(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{3, 5, 7}, ShardSeeds: true, PBS: []bool{true}, MaxInstrs: 50_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	res, err := (&sweep.Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Agg == nil {
		t.Fatalf("grid expands to %d results, want one aggregate", len(res))
	}
	agg := res[0].Agg
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range agg.Seeds {
		data, err := json.Marshal(agg.Sims[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(Addr("result", res[0].Point.Shard(seed).Canonical()), data); err != nil {
			t.Fatal(err)
		}
	}

	// The predecessor's journal: the job, then its three shard rows.
	jn, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	entries := []JournalEntry{{T: journalJob, Job: "j1", Grid: &g}}
	for pos := range agg.Seeds {
		entries = append(entries, JournalEntry{T: journalRow, Job: "j1", Seq: pos, Pos: pos})
	}
	for _, e := range entries {
		if err := jn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	jn.Close()

	lb := &logBuf{}
	srv := NewServer(store)
	srv.Logf = lb.logf
	if err := srv.AttachJournal(jpath); err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if !lb.contains("0 cached, 0 re-queued") {
		t.Fatalf("recovery did not resolve the job from the journal alone:\n%s", strings.Join(lb.lines, "\n"))
	}
	_, base := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stream []StreamEntry
	if err := (&Client{Server: base}).Stream(ctx, "j1", 0, func(e StreamEntry) error {
		stream = append(stream, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if len(stream) != 5 {
		t.Fatalf("stream has %d entries, want 3 shard rows, the aggregate row and done", len(stream))
	}
	for i, e := range stream[:4] {
		if e.Seq != i || e.Pos != i || e.Done {
			t.Errorf("entry %d is seq %d pos %d done=%v, want row %d at its position", i, e.Seq, e.Pos, e.Done, i)
		}
	}
	last := stream[4]
	if !last.Done || last.Err != "" || last.Rows != 4 {
		t.Fatalf("terminal entry done=%v err=%q rows=%d, want a clean 4-row completion", last.Done, last.Err, last.Rows)
	}
	rows := make([]json.RawMessage, last.Rows)
	for _, e := range stream[:4] {
		rows[e.Pos] = e.Row
	}
	recs, err := decodeRows(rows, 4, last.Rows, true)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[3].Aggregate {
		t.Errorf("row 3 is not the aggregate row: %+v", recs[3])
	}
	var got bytes.Buffer
	if err := sweep.WriteRecordsJSON(&got, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantJSON[0]) {
		t.Errorf("recovered stream differs from batch output\n%s", firstDiff(got.Bytes(), wantJSON[0]))
	}
}

// TestChaosSweep is the acceptance chaos run: the full 13-point smoke
// suite executed by workers whose every request passes through a seeded
// fault injector (drops, resets, duplicated deliveries, delays), with
// one worker killed mid-sweep and the server restarted mid-job onto the
// same store and journal. JSON and CSV output must still be
// byte-identical to the in-process batch engine — faults may cost time,
// never bytes.
func TestChaosSweep(t *testing.T) {
	grids := smokeGrids()
	wantJSON, wantCSV := batchOutputs(t, grids)

	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	lb := &logBuf{}
	newServer := func() *Server {
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		// Generous enough for renewals to clear under the race detector
		// on a loaded box; the killed worker's point still re-leases
		// within one TTL.
		srv.LeaseTTL = 3 * time.Second
		srv.RetryMS = 5
		srv.Logf = lb.logf
		if err := srv.AttachJournal(jpath); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	hs, base := serveAt(t, newServer(), "127.0.0.1:0")
	addr := strings.TrimPrefix(base, "http://")

	in := faultinject.New(faultinject.Config{
		Seed:      2018,
		DropProb:  0.05,
		ResetProb: 0.05,
		DupProb:   0.05,
		DelayProb: 0.10,
		MaxDelay:  5 * time.Millisecond,
	})
	faulty := &http.Client{Transport: in.Transport(nil)}
	progs := sweep.NewProgramCache()
	mkWorker := func(name string) *Worker {
		return &Worker{
			Server:        base,
			Name:          name,
			HTTP:          faulty,
			Programs:      progs,
			Poll:          5 * time.Millisecond,
			Chunk:         16384,
			ProgressEvery: 2 * time.Millisecond,
			RetryBudget:   60 * time.Second,
		}
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for i := range 2 {
		go mkWorker(fmt.Sprintf("chaos%d", i)).Run(wctx)
	}
	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	go mkWorker("victim").Run(vctx)

	c := &Client{Server: base, RetryBudget: 90 * time.Second}
	killed, restarted := false, false
	for i, g := range grids {
		var progress atomic.Int64
		var recs []sweep.Record
		var cerr error
		done := make(chan struct{})
		gctx, gcancel := context.WithTimeout(context.Background(), 120*time.Second)
		go func() {
			defer close(done)
			recs, cerr = c.Collect(gctx, g, func(d, _ int) { progress.Store(int64(d)) })
		}()
		switch i {
		case 0:
			// Kill one worker with rows still outstanding: its lease
			// expires and the point re-leases (with progress, if any
			// renewal carried a checkpoint before the kill).
			waitFor(t, func() bool { return progress.Load() >= 1 }, 60*time.Second, "first row of the kill grid")
			vcancel()
			killed = true
		case 2:
			// Restart the server mid-job on the same address, store and
			// journal. Workers ride it out on their retry budgets; the
			// client's stream resumes against the replayed job.
			waitFor(t, func() bool { return progress.Load() >= 1 }, 60*time.Second, "first row of the restart grid")
			hs.Close()
			hs, _ = serveAt(t, newServer(), addr)
			restarted = true
		}
		<-done
		gcancel()
		if cerr != nil {
			t.Fatalf("grid %d under chaos: %v", i, cerr)
		}
		var j, cv bytes.Buffer
		if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteRecordsCSV(&cv, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j.Bytes(), wantJSON[i]) {
			t.Errorf("grid %d: chaos JSON differs from batch engine output\n%s", i, firstDiff(j.Bytes(), wantJSON[i]))
		}
		if !bytes.Equal(cv.Bytes(), wantCSV[i]) {
			t.Errorf("grid %d: chaos CSV differs from batch engine output\n%s", i, firstDiff(cv.Bytes(), wantCSV[i]))
		}
	}
	if !killed || !restarted {
		t.Fatalf("chaos schedule incomplete: killed=%v restarted=%v", killed, restarted)
	}
	st := in.Stats()
	if st.Drops+st.Resets+st.Dups == 0 {
		t.Errorf("the injector never fired (%+v); the sweep was not actually under chaos", st)
	}
	t.Logf("chaos: %d requests, %d drops, %d resets, %d dups, %d delays", st.Requests, st.Drops, st.Resets, st.Dups, st.Delays)
}

// TestChaosGroupKill is migration at group granularity: one worker
// leases a whole stream group (two predictors × two widths over one
// functional stream), piggybacks a checkpoint of the shared session and
// is killed without ceremony. The successor resumes every member from
// that checkpoint, and each member's record is byte-identical to the
// in-process engine's.
func TestChaosGroupKill(t *testing.T) {
	g := sweep.Grid{
		Workloads:  []string{"Bandit"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		Widths:     []int{4, 8},
		PBS:        []bool{true},
		Seeds:      []uint64{19},
		MaxInstrs:  400_000,
	}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	lb := &logBuf{}
	srv := NewServer(NewMemStore())
	srv.LeaseTTL = 3 * time.Second
	srv.RetryMS = 5
	srv.Logf = lb.logf
	_, base := startServer(t, srv)

	var recs []sweep.Record
	var cerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		recs, cerr = (&Client{Server: base}).Collect(context.Background(), g, nil)
	}()

	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	go migrationWorker(base, "victim").Run(vctx)
	waitFor(t, func() bool { return lb.contains("serve: progress ") }, 30*time.Second, "a group progress checkpoint to land")
	vcancel()

	startWorkers(t, base, 1)
	<-done
	if cerr != nil {
		t.Fatalf("collect across the group migration: %v", cerr)
	}
	if !lb.contains("(4 points, victim)") {
		t.Fatal("the victim did not lease the whole stream group")
	}
	if !lb.contains("(4 points, w0) resumes @") {
		t.Fatal("the successor did not resume the group from the victim's checkpoint")
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("migrated group differs from the in-process engine\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

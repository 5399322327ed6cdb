package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// fpost drives the worker protocol by hand — the "worker" in these
// tests misbehaves in ways the real Worker never would.
func fpost(t *testing.T, base, path string, in, out any) {
	t.Helper()
	if err := postJSON(context.Background(), http.DefaultClient, base, path, in, out); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestWorkerCrashReleases pins the re-lease path: a worker leases the
// only point of a job and vanishes without completing or renewing. Once
// the lease TTL lapses the server re-queues the point, a healthy worker
// picks it up, and the job completes with the batch engine's bytes.
func TestWorkerCrashReleases(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{9}, MaxInstrs: 40_000}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	srv := NewServer(NewMemStore())
	srv.LeaseTTL = 50 * time.Millisecond
	srv.RetryMS = 5
	_, base := startServer(t, srv)

	c := &Client{Server: base}
	if _, err := c.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}

	// The crash: lease the point, then never speak to the server again.
	var lr LeaseResponse
	fpost(t, base, "/v1/lease", LeaseRequest{Worker: "doomed"}, &lr)
	if lr.Status != StatusPoint {
		t.Fatalf("lease status %q, want %q", lr.Status, StatusPoint)
	}

	startWorkers(t, base, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recs, err := c.Collect(ctx, g, nil)
	if err != nil {
		t.Fatalf("collect after worker crash: %v", err)
	}
	var j bytes.Buffer
	if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), wantJSON[0]) {
		t.Errorf("re-leased result differs from batch output\n%s", firstDiff(j.Bytes(), wantJSON[0]))
	}
}

// TestStalledWorkerLateCompletion pins lease expiry under a stalled —
// but surviving — worker: its lease expires and is reclaimed (renew
// answers StatusGone), yet the completion it eventually reports is
// accepted by content address, because a deterministic result is valid
// no matter whose lease produced it. The job finishes with no other
// worker attached.
func TestStalledWorkerLateCompletion(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{13}, MaxInstrs: 40_000}

	srv := NewServer(NewMemStore())
	srv.LeaseTTL = 50 * time.Millisecond
	srv.RetryMS = 5
	_, base := startServer(t, srv)

	c := &Client{Server: base}
	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	var lr LeaseResponse
	fpost(t, base, "/v1/lease", LeaseRequest{Worker: "stalled"}, &lr)
	if lr.Status != StatusPoint {
		t.Fatalf("lease status %q, want %q", lr.Status, StatusPoint)
	}

	// Compute the point's result for real (the stall is in reporting,
	// not in the simulation), through the in-process engine: a
	// deterministic result is the same wherever it runs.
	rs, err := (&sweep.Engine{}).RunPoints(context.Background(), lr.Points, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Stall past the TTL, then renew: the server must have reclaimed the
	// lease.
	time.Sleep(3 * srv.LeaseTTL)
	var rr RenewResponse
	fpost(t, base, "/v1/renew", RenewRequest{Lease: lr.Lease}, &rr)
	if rr.Status != StatusGone {
		t.Fatalf("renew after expiry: status %q, want %q", rr.Status, StatusGone)
	}

	// The late completion, under the now-dead lease, still lands.
	var cr CompleteResponse
	fpost(t, base, "/v1/complete", CompleteRequest{Lease: lr.Lease, Members: []MemberResult{{Point: lr.Points[0], Result: rs[0].Sim}}}, &cr)
	if cr.Status != StatusOK {
		t.Fatalf("late completion: status %q, want %q", cr.Status, StatusOK)
	}
	st, err := c.Status(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Error != "" {
		t.Errorf("job after late completion: done=%v error=%q, want done with no error", st.Done, st.Error)
	}
}

// TestRunErrorCancelsJob pins the job-level cancellation broadcast: one
// failing run fails the whole job (the stream's terminal entry carries
// the error), the job's other in-flight lease is told StatusGone on its
// next renewal, and its unleased work is dropped from the queue.
func TestRunErrorCancelsJob(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{1, 2, 3}, MaxInstrs: 40_000}

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)

	c := &Client{Server: base}
	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	// Lease two of the three points; the third stays queued.
	var la, lb LeaseResponse
	fpost(t, base, "/v1/lease", LeaseRequest{Worker: "a"}, &la)
	fpost(t, base, "/v1/lease", LeaseRequest{Worker: "b"}, &lb)
	if la.Status != StatusPoint || lb.Status != StatusPoint {
		t.Fatalf("lease statuses %q, %q, want both %q", la.Status, lb.Status, StatusPoint)
	}

	// Worker a reports a failure.
	var cr CompleteResponse
	fpost(t, base, "/v1/complete", CompleteRequest{Lease: la.Lease, Members: []MemberResult{{Point: la.Points[0], Error: "synthetic failure"}}}, &cr)

	// The job is finished with the error, and the stream says so.
	var last StreamEntry
	err = c.Stream(context.Background(), jr.ID, 0, func(e StreamEntry) error {
		last = e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !last.Done || !strings.Contains(last.Err, "synthetic failure") {
		t.Errorf("terminal entry done=%v err=%q, want done with the synthetic failure", last.Done, last.Err)
	}

	// Worker b's next renewal learns its run is pointless now.
	var rr RenewResponse
	fpost(t, base, "/v1/renew", RenewRequest{Lease: lb.Lease}, &rr)
	if rr.Status != StatusGone {
		t.Errorf("renew of cancelled job's lease: status %q, want %q", rr.Status, StatusGone)
	}

	// The queued third point was dropped: nothing left to lease.
	var lc LeaseResponse
	fpost(t, base, "/v1/lease", LeaseRequest{Worker: "c"}, &lc)
	if lc.Status != StatusIdle {
		t.Errorf("lease after cancellation: status %q, want %q", lc.Status, StatusIdle)
	}
}

// TestClientDisconnectDoesNotAbort pins stream independence: dropping a
// client's stream mid-job affects only that connection. The job runs to
// completion, and a later stream from sequence 0 replays every row
// exactly once.
func TestClientDisconnectDoesNotAbort(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{1, 2, 3, 4}, MaxInstrs: 40_000}

	srv := NewServer(NewMemStore())
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	startWorkers(t, base, 1)

	c := &Client{Server: base}
	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	// Watch the stream just long enough to see one row, then hang up.
	sctx, scancel := context.WithCancel(context.Background())
	_ = c.Stream(sctx, jr.ID, 0, func(e StreamEntry) error {
		scancel()
		return nil
	})
	scancel()

	// The job must still finish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(context.Background(), jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			if st.Error != "" {
				t.Fatalf("job failed after client disconnect: %s", st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish after client disconnect (%d/%d rows)", st.Emitted, st.Rows)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Replay from scratch: all rows, each exactly once, then Done.
	seen := make(map[int]bool)
	var last StreamEntry
	err = c.Stream(context.Background(), jr.ID, 0, func(e StreamEntry) error {
		if !e.Done {
			if seen[e.Pos] {
				t.Errorf("row %d replayed twice", e.Pos)
			}
			seen[e.Pos] = true
		}
		last = e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != jr.Rows || !last.Done || last.Err != "" {
		t.Errorf("replay: %d rows, done=%v err=%q; want %d rows and a clean terminal entry",
			len(seen), last.Done, last.Err, jr.Rows)
	}
}

// TestServeLeasesStreamGroups pins lease-time grouping: the four points
// of a 1-workload × 2-predictor × 2-width × 1-seed grid share one
// functional stream. With one worker they go out as one lease; with two
// workers that both polled before the job landed, the group splits so
// that both lease. Either way the job's records are byte-identical to
// the in-process engine's.
func TestServeLeasesStreamGroups(t *testing.T) {
	g := sweep.Grid{
		Workloads:  []string{"PI"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		Widths:     []int{4, 8},
		Seeds:      []uint64{3},
		MaxInstrs:  40_000,
	}
	wantJSON, _ := batchOutputs(t, []sweep.Grid{g})

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := NewServer(NewMemStore())
			srv.RetryMS = 5
			_, base := startServer(t, srv)
			names := []string{"a", "b"}[:workers]
			for _, name := range names {
				var lr LeaseResponse
				fpost(t, base, "/v1/lease", LeaseRequest{Worker: name}, &lr)
				if lr.Status != StatusIdle {
					t.Fatalf("lease before any job: status %q, want %q", lr.Status, StatusIdle)
				}
			}
			c := &Client{Server: base}
			jr, err := c.Submit(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}

			var leases []LeaseResponse
			seen := map[sweep.Point]bool{}
			for _, name := range names {
				var lr LeaseResponse
				fpost(t, base, "/v1/lease", LeaseRequest{Worker: name}, &lr)
				if lr.Status != StatusPoint {
					t.Fatalf("worker %s: lease status %q, want %q", name, lr.Status, StatusPoint)
				}
				if len(lr.Points) != 4/workers {
					t.Errorf("worker %s leased %d points, want %d", name, len(lr.Points), 4/workers)
				}
				for _, p := range lr.Points {
					seen[p] = true
				}
				leases = append(leases, lr)
			}
			if len(seen) != 4 {
				t.Errorf("the leases cover %d distinct points, want 4", len(seen))
			}
			var idle LeaseResponse
			fpost(t, base, "/v1/lease", LeaseRequest{Worker: names[0]}, &idle)
			if idle.Status != StatusIdle {
				t.Errorf("lease after the grid went out: status %q, want %q", idle.Status, StatusIdle)
			}

			for _, lr := range leases {
				rs, err := (&sweep.Engine{}).RunPoints(context.Background(), lr.Points, 1)
				if err != nil {
					t.Fatal(err)
				}
				members := make([]MemberResult, len(rs))
				for i, r := range rs {
					members[i] = MemberResult{Point: r.Point, Result: r.Sim}
				}
				var cr CompleteResponse
				fpost(t, base, "/v1/complete", CompleteRequest{Lease: lr.Lease, Members: members}, &cr)
				if cr.Status != StatusOK {
					t.Fatalf("completion: status %q, want %q", cr.Status, StatusOK)
				}
			}
			rows := make([]json.RawMessage, jr.Rows)
			var last StreamEntry
			if err := c.Stream(context.Background(), jr.ID, 0, func(e StreamEntry) error {
				if !e.Done {
					rows[e.Pos] = e.Row
				}
				last = e
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !last.Done || last.Err != "" {
				t.Fatalf("terminal entry done=%v err=%q, want a clean completion", last.Done, last.Err)
			}
			recs, err := decodeRows(rows, jr.Rows, jr.Rows, true)
			if err != nil {
				t.Fatal(err)
			}
			var j bytes.Buffer
			if err := sweep.WriteRecordsJSON(&j, recs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j.Bytes(), wantJSON[0]) {
				t.Errorf("grouped records differ from the in-process engine\n%s", firstDiff(j.Bytes(), wantJSON[0]))
			}
		})
	}
}

// TestStoreFailureFailsJob: a result the store cannot make durable is
// never promised. The store's directory vanishes after OpenStore, so
// the completion's Put fails; the job fails with the store error
// instead of streaming (and journaling) a row a restarted server could
// not rebuild, and the store keeps missing the address rather than
// serving the result from memory.
func TestStoreFailureFailsJob(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{9}, MaxInstrs: 40_000}
	dir := filepath.Join(t.TempDir(), "store")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.RetryMS = 5
	_, base := startServer(t, srv)
	startWorkers(t, base, 1)

	c := &Client{Server: base}
	jr, err := c.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var entries []StreamEntry
	if err := c.Stream(ctx, jr.ID, 0, func(e StreamEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last := entries[len(entries)-1]; len(entries) != 1 || !strings.Contains(last.Err, "store put") {
		t.Fatalf("stream has %d entries ending in done=%v err=%q, want only a terminal entry carrying the store error",
			len(entries), last.Done, last.Err)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(Addr("result", pts[0].Canonical())); ok {
		t.Error("the store serves a result it failed to persist")
	}
}

// TestConcurrentDrain: Drain is safe from any number of goroutines at
// once, and a drained worker's Run returns nil.
func TestConcurrentDrain(t *testing.T) {
	for range 2000 {
		w := &Worker{Server: "http://127.0.0.1:1"}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				w.Drain()
			}()
		}
		close(start)
		wg.Wait()
		if err := w.Run(context.Background()); err != nil {
			t.Fatalf("drained worker: Run returned %v, want nil", err)
		}
	}
}

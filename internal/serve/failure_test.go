package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

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
	rs, err := sweep.NewEngine().RunPoints(context.Background(), []sweep.Point{*lr.Point}, 1)
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
	fpost(t, base, "/v1/complete", CompleteRequest{Lease: lr.Lease, Point: *lr.Point, Result: rs[0].Sim}, &cr)
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
	fpost(t, base, "/v1/complete", CompleteRequest{Lease: la.Lease, Point: *la.Point, Error: "synthetic failure"}, &cr)

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

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sweep"
)

// rawStream reads a job's stream from sequence number from as bytes.
func rawStream(t *testing.T, base, id string, from int) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream?from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s from %d: %s", id, from, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeEntries is the stream as json.Encoder writes the entries.
func encodeEntries(t *testing.T, entries []StreamEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// parseEntries splits stream bytes into their entries.
func parseEntries(t *testing.T, data []byte) []StreamEntry {
	t.Helper()
	var out []StreamEntry
	for line := range bytes.Lines(data) {
		var e StreamEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestStreamBytesMatchEncoder pins the stream's wire bytes: the server
// encodes each entry's line once and writes the stored line, and those
// bytes must equal json.Encoder's encoding of the StreamEntry — whose
// row is the json.Marshal of the in-process engine's record at that
// position. It covers row entries of a sharded grid, a resume from a
// mid-stream sequence number, a job the journal rebuilt on a restarted
// server, and a failed job's terminal entry, whose error needs
// escaping.
func TestStreamBytesMatchEncoder(t *testing.T) {
	g := sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{3, 5}, ShardSeeds: true, PBS: []bool{false, true}, MaxInstrs: 30_000}
	res, err := (&sweep.Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records()
	// want rebuilds the stream's expected bytes from the positions and
	// sequence numbers it carries and the batch engine's records.
	want := func(got []byte) []byte {
		entries := parseEntries(t, got)
		for i, e := range entries {
			if e.Done {
				entries[i] = StreamEntry{Seq: e.Seq, Done: true, Rows: len(recs), Err: e.Err}
				continue
			}
			row, err := json.Marshal(recs[e.Pos])
			if err != nil {
				t.Fatal(err)
			}
			entries[i] = StreamEntry{Seq: e.Seq, Pos: e.Pos, Row: row}
		}
		return encodeEntries(t, entries)
	}

	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(store1)
	srv1.RetryMS = 5
	if err := srv1.AttachJournal(jpath); err != nil {
		t.Fatal(err)
	}
	hs1, base1 := startServer(t, srv1)
	stop := startWorkers(t, base1, 1)
	c := &Client{Server: base1}
	if _, err := c.Collect(context.Background(), g, nil); err != nil {
		t.Fatal(err)
	}
	stop()
	full := rawStream(t, base1, "j1", 0)
	if n := len(parseEntries(t, full)); n != len(recs)+1 {
		t.Fatalf("stream has %d entries, want %d rows and done", n, len(recs)+1)
	}
	if w := want(full); !bytes.Equal(full, w) {
		t.Fatalf("stream bytes differ from json.Encoder's\n%s", firstDiff(full, w))
	}

	// A resumed stream is the suffix of the full one, line for line.
	lines := bytes.SplitAfter(full, []byte("\n"))
	from := 3
	if got, w := rawStream(t, base1, "j1", from), bytes.Join(lines[from:], nil); !bytes.Equal(got, w) {
		t.Errorf("stream from %d is not the full stream's suffix\n%s", from, firstDiff(got, w))
	}
	hs1.Close()

	// The successor rebuilds the job from the journal and the store, and
	// streams the identical bytes.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2)
	if err := srv2.AttachJournal(jpath); err != nil {
		t.Fatal(err)
	}
	_, base2 := startServer(t, srv2)
	if got := rawStream(t, base2, "j1", 0); !bytes.Equal(got, full) {
		t.Errorf("replayed stream differs from the original\n%s", firstDiff(got, full))
	}

	// A failed job's terminal entry, with an error json.Encoder escapes.
	jr, err := (&Client{Server: base2}).Submit(context.Background(), sweep.Grid{Workloads: []string{"DOP"}, Seeds: []uint64{9}, MaxInstrs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	fpost(t, base2, "/v1/lease", LeaseRequest{Worker: "w"}, &lr)
	if lr.Status != StatusPoint {
		t.Fatalf("lease status %q, want %q", lr.Status, StatusPoint)
	}
	msg := "synthetic <failure> & \"quote\" \u2028"
	var cr CompleteResponse
	fpost(t, base2, "/v1/complete", CompleteRequest{Lease: lr.Lease, Members: []MemberResult{{Point: lr.Points[0], Error: msg}}}, &cr)
	got := rawStream(t, base2, jr.ID, 0)
	w := encodeEntries(t, []StreamEntry{{Seq: 0, Done: true, Rows: 1, Err: msg}})
	if !bytes.Equal(got, w) {
		t.Errorf("failed job's stream differs from json.Encoder's\n got: %s\nwant: %s", got, w)
	}
}

// Package serve promotes the batch sweep engine (internal/sweep) to a
// long-lived, multi-host service: a job server that accepts grid
// specifications over HTTP/JSON, expands them into single-seed runs,
// leases the runs that share a functional stream to pull-based workers
// as one stream group with deadlines and automatic re-lease on worker
// loss, and merges completed results — per-seed shards included —
// through the exact semantics of the in-process engine. Completed results land in a
// content-addressed store keyed by the canonical sweep point, so
// overlapping grids from any number of clients simulate each distinct
// point once cluster-wide, and clients watch their grid fill in live
// over a chunked NDJSON stream whose rows are byte-identical to the
// batch engine's records.
//
// The package exposes three roles: Server (the coordinator; owns no
// simulation), Worker (a pull-based executor; any number may attach),
// and Client (submits grids and reassembles streams). cmd/pbsweep
// surfaces them as the serve and worker subcommands and the -server
// client mode. See DESIGN.md §8 for the protocol and its determinism
// argument.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"sync"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Protocol statuses. Every response names its outcome explicitly rather
// than overloading HTTP codes, so workers can switch on one field.
const (
	// StatusPoint (lease): the response carries a leased stream group
	// to run.
	StatusPoint = "point"
	// StatusIdle (lease): no work right now; retry after RetryMS.
	StatusIdle = "idle"
	// StatusOK (renew, release, complete): accepted.
	StatusOK = "ok"
	// StatusGone (renew, release, complete): the lease no longer exists
	// — expired and reclaimed, or its jobs were cancelled. The worker
	// abandons the group; the server has already arranged for it to run
	// elsewhere or not at all.
	StatusGone = "gone"
)

// JobRequest submits a grid: POST /v1/jobs.
type JobRequest struct {
	Grid sweep.Grid `json:"grid"`
}

// JobResponse describes an accepted job. Rows is the exact number of
// output records the job will stream (per-seed rows plus one aggregate
// row per sharded point), fixed at submission — every streamed row
// carries its final position in [0, Rows).
type JobResponse struct {
	ID     string `json:"id"`
	Rows   int    `json:"rows"`
	Points int    `json:"points"`
	// Cached counts the runs answered from the content-addressed store at
	// submission, without touching the worker pool.
	Cached int `json:"cached"`
	// Runs counts the runs scheduled for workers.
	Runs int `json:"runs"`
}

// JobStatus reports a job's progress: GET /v1/jobs/{id}.
type JobStatus struct {
	ID      string `json:"id"`
	Rows    int    `json:"rows"`
	Emitted int    `json:"emitted"`
	Done    bool   `json:"done"`
	Error   string `json:"error,omitempty"`
}

// LeaseRequest asks for work: POST /v1/lease. Worker names the
// requester in logs and tells workers apart: the server splits queued
// stream groups so that every worker that asked within the last lease
// TTL can hold one (see Server). Workers without a name count as one.
type LeaseRequest struct {
	Worker string `json:"worker,omitempty"`
}

// LeaseResponse answers a lease request. With StatusPoint, Points is
// the stream group to run — single-seed points sharing one functional
// stream (sweep.Point.StreamPoint), run as one session by
// sweep.StartGroup — Lease the handle for renew/release/complete, and
// TTLMS the lease deadline: the worker must renew (or complete) within
// it or the server re-leases the group to another worker. When a
// previous holder of this group left a progress checkpoint behind (via
// renew or release), Checkpoint carries it and Instrs the instruction
// count it represents: the worker resumes every member there instead
// of starting cold.
type LeaseResponse struct {
	Status     string        `json:"status"`
	Lease      uint64        `json:"lease,omitempty"`
	Points     []sweep.Point `json:"points,omitempty"`
	TTLMS      int64         `json:"ttl_ms,omitempty"`
	RetryMS    int64         `json:"retry_ms,omitempty"`
	Checkpoint []byte        `json:"checkpoint,omitempty"`
	Instrs     uint64        `json:"instrs,omitempty"`
}

// RenewRequest extends a lease: POST /v1/renew. A renewal may piggyback
// a progress checkpoint of the leased group's session (Checkpoint, with
// Instrs the instruction count it represents); the server keeps the
// highest-count checkpoint per leased group and ships it with a
// re-lease, so worker loss costs at most one renew interval of work.
type RenewRequest struct {
	Lease      uint64 `json:"lease"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	Instrs     uint64 `json:"instrs,omitempty"`
}

// RenewResponse answers a renewal: StatusOK with a fresh TTL, or
// StatusGone when the lease was reclaimed or its job cancelled — the
// job-level cancellation broadcast that replaces the in-process
// engine's first-error abort.
type RenewResponse struct {
	Status string `json:"status"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
}

// ReleaseRequest hands a lease back voluntarily: POST /v1/release. A
// draining worker that cannot finish its group in time checkpoints it
// and releases the lease; the server re-queues the group with the
// checkpoint as its progress, so the handoff loses no work. Checkpoint
// may be empty (release without progress — the group restarts from
// whatever progress the server already holds).
type ReleaseRequest struct {
	Lease      uint64 `json:"lease"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	Instrs     uint64 `json:"instrs,omitempty"`
}

// ReleaseResponse acknowledges a release: StatusOK, or StatusGone when
// the lease had already expired (harmless — the group was re-queued by
// reclaim instead).
type ReleaseResponse struct {
	Status string `json:"status"`
}

// CompleteRequest reports a finished group: POST /v1/complete, with
// one entry per member of the lease. Results travel in sim.Result's own
// JSON form, which is also what the server stores.
type CompleteRequest struct {
	Lease   uint64         `json:"lease"`
	Members []MemberResult `json:"members"`
}

// MemberResult is one member's outcome: exactly one of Result and
// Error is set. Point re-identifies the run so a result that arrives
// after its lease expired (the worker stalled but survived) is still
// accepted — results are deterministic, so any completion of a point is
// as good as any other.
type MemberResult struct {
	Point  sweep.Point `json:"point"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	Status string `json:"status"`
}

// StreamEntry is one line of a job's NDJSON stream: either a row entry
// (Row non-nil, Pos its final position in the job's record order) or
// the terminal entry (Done true, Error set if the job failed). Seq
// numbers entries contiguously from 0; a client that reconnects with
// from=<next seq> receives each entry exactly once.
type StreamEntry struct {
	Seq  int             `json:"seq"`
	Pos  int             `json:"pos"`
	Row  json.RawMessage `json:"row,omitempty"`
	Done bool            `json:"done,omitempty"`
	Rows int             `json:"rows,omitempty"`
	Err  string          `json:"error,omitempty"`
}

// appendRowLine appends the NDJSON line of a row entry to b: exactly
// the bytes json.Encoder writes for StreamEntry{Seq: seq, Pos: pos,
// Row: row}, given a row encoded by encoding/json with its default
// HTML escaping. The encoder would compact and HTML-escape the row
// again, and such a row already is both, so it is spliced in as is.
func appendRowLine(b []byte, seq, pos int, row []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"pos":`...)
	b = strconv.AppendInt(b, int64(pos), 10)
	b = append(b, `,"row":`...)
	b = append(b, row...)
	return append(b, "}\n"...)
}

// maxBody caps a protocol body read by decodeBody. The largest bodies
// are progress checkpoints riding renewals and the lease responses
// that ship them on, tens of kilobytes per group member.
const maxBody = 64 << 20

var errBodyTooLarge = errors.New("serve: body exceeds 64 MiB")

// bodyBufs recycles the buffers request and response bodies are read
// into, so a steady stream of leases, renewals and completions reads
// them without growing a new buffer each time.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads one JSON body of at most maxBody bytes into a pooled
// buffer and decodes it into v; strict rejects unknown fields. Nothing
// decoded aliases the buffer: encoding/json copies strings and raw
// messages and decodes []byte fields into fresh slices.
func decodeBody(r io.Reader, v any, strict bool) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(r, maxBody+1)); err != nil {
		return err
	}
	if buf.Len() > maxBody {
		return errBodyTooLarge
	}
	if !strict {
		return json.Unmarshal(buf.Bytes(), v)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

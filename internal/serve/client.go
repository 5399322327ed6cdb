package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/sweep"
)

// ErrNoJob marks a stream request for a job the server does not know —
// a restarted server, or a mistyped ID. Reconnecting cannot recover it.
var ErrNoJob = errors.New("serve: no such job")

// Client submits grids to a job server and reassembles the streamed
// rows into the batch engine's record order. The reassembled records
// serialize byte-identically to an in-process run of the same grid
// (sweep.WriteRecordsJSON / WriteRecordsCSV), because every row is the
// server-side marshaling of the same Record struct the batch writers
// flatten, placed at the position the batch order assigns it.
type Client struct {
	// Server is the base URL of the job server.
	Server string
	// HTTP is the client used for every request; nil means a default
	// with no overall timeout (streams need none).
	HTTP *http.Client
	// RetryBudget bounds how long Collect keeps reconnecting without
	// receiving a single new entry before it gives up and returns the
	// partial rows with the last error; the zero value means 2 minutes —
	// enough to ride out a server restart (the journal brings the job
	// back). Any delivered entry resets the budget.
	RetryBudget time.Duration
}

func (c *Client) retryBudget() time.Duration {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return 2 * time.Minute
}

// Submit posts a grid and returns the accepted job's description.
func (c *Client) Submit(ctx context.Context, g sweep.Grid) (JobResponse, error) {
	var jr JobResponse
	err := postJSON(ctx, c.httpClient(), c.Server, "/v1/jobs", JobRequest{Grid: g}, &jr)
	return jr, err
}

// Status fetches a job's progress.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return st, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return st, fmt.Errorf("serve: job status: %s", resp.Status)
	}
	err = decodeBody(resp.Body, &st, false)
	return st, err
}

// Stream follows a job's NDJSON stream from sequence number `from`,
// invoking fn per entry (including the terminal Done entry), until the
// stream ends or ctx is cancelled. It makes a single connection; use
// Collect for resume-on-disconnect semantics.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(StreamEntry) error) error {
	return c.streamLines(ctx, id, from, func(line []byte) error {
		var e StreamEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("serve: stream: %w", err)
		}
		return fn(e)
	})
}

// streamLines is Stream's connection: it passes each non-empty NDJSON
// line to fn, which must not retain it.
func (c *Client) streamLines(ctx context.Context, id string, from int, fn func(line []byte) error) error {
	u := c.Server + "/v1/jobs/" + url.PathEscape(id) + "/stream?from=" + strconv.Itoa(from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The job does not exist on this server (say, a restarted one);
		// no amount of reconnecting brings it back.
		return fmt.Errorf("%w: job %s", ErrNoJob, id)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve: stream: %s", resp.Status)
	}
	// The buffer starts at the scanner's 4 KiB default and grows to fit
	// the longest line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// collectEntry is a StreamEntry whose row decodes straight into a
// record, so Collect decodes every row once.
type collectEntry struct {
	Seq  int           `json:"seq"`
	Pos  int           `json:"pos"`
	Row  *sweep.Record `json:"row"`
	Done bool          `json:"done"`
	Err  string        `json:"error"`
}

// Collect submits a grid and gathers the complete, ordered record set,
// reconnecting (and resuming exactly where it left off, by sequence
// number) if the stream drops while the job is still running. onRow,
// when non-nil, observes progress as rows land. On error — including
// ctx cancellation mid-stream — the rows received so far are returned
// in order alongside the error, so an interrupted client can still
// flush what the cluster finished.
func (c *Client) Collect(ctx context.Context, g sweep.Grid, onRow func(done, total int)) ([]sweep.Record, error) {
	jr, err := c.Submit(ctx, g)
	if err != nil {
		return nil, err
	}
	recs := make([]sweep.Record, jr.Rows)
	have := make([]bool, jr.Rows)
	filled := 0
	next := 0
	var jobErr, fatal error
	done := false
	bo := newBackoff(100*time.Millisecond, 2*time.Second)
	lastProgress := time.Now()
	// Every line decodes into these, zeroed first: decoding leaves the
	// fields a line omits as they were.
	var (
		row sweep.Record
		e   collectEntry
	)
	for !done {
		err := c.streamLines(ctx, jr.ID, next, func(line []byte) error {
			row = sweep.Record{}
			e = collectEntry{Row: &row}
			if err := json.Unmarshal(line, &e); err != nil {
				var syn *json.SyntaxError
				if errors.As(err, &syn) {
					// A torn line is a broken connection: reconnect.
					return fmt.Errorf("serve: stream: %w", err)
				}
				fatal = fmt.Errorf("serve: decode record: %w", err)
				return fatal
			}
			if e.Seq != next {
				fatal = fmt.Errorf("serve: stream out of sequence: got %d, want %d", e.Seq, next)
				return fatal
			}
			next++
			lastProgress = time.Now()
			if e.Done {
				if e.Err != "" {
					jobErr = fmt.Errorf("serve: job %s failed: %s", jr.ID, e.Err)
				}
				done = true
				return nil
			}
			if e.Pos < 0 || e.Pos >= len(recs) {
				fatal = fmt.Errorf("serve: row position %d outside job layout (%d rows)", e.Pos, len(recs))
				return fatal
			}
			if e.Row == nil {
				// "row": null; the server never sends one.
				return nil
			}
			if !have[e.Pos] {
				have[e.Pos] = true
				filled++
				if onRow != nil {
					onRow(filled, jr.Rows)
				}
			}
			recs[e.Pos] = row
			return nil
		})
		if done {
			break
		}
		if fatal != nil {
			return nil, fatal
		}
		if errors.Is(err, ErrNoJob) {
			return filledRecords(recs, have, filled), err
		}
		if ctx.Err() != nil {
			return filledRecords(recs, have, filled), context.Canceled
		}
		// The connection dropped mid-job (network blip, proxy timeout,
		// server restart). The job survives both client disconnects and —
		// with a journal — server restarts, so retry with jittered backoff
		// and resume from the next sequence number. A stream that yields
		// nothing new for the whole retry budget surfaces the real error
		// instead of spinning forever.
		if time.Since(lastProgress) > c.retryBudget() {
			if err == nil {
				err = fmt.Errorf("serve: job %s: no stream progress for %v", jr.ID, c.retryBudget())
			}
			return filledRecords(recs, have, filled), err
		}
		if !sleepCtx(ctx, bo.next()) {
			return filledRecords(recs, have, filled), context.Canceled
		}
	}
	if jobErr != nil {
		return filledRecords(recs, have, filled), jobErr
	}
	if filled != jr.Rows {
		return nil, fmt.Errorf("serve: job finished with %d of %d rows delivered", filled, jr.Rows)
	}
	return recs, nil
}

// filledRecords returns the delivered records in position order,
// compacting recs in place.
func filledRecords(recs []sweep.Record, have []bool, filled int) []sweep.Record {
	if filled == len(recs) {
		return recs
	}
	out := recs[:0]
	for pos, ok := range have {
		if ok {
			out = append(out, recs[pos])
		}
	}
	return out
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

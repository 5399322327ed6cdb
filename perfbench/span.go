package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one recorded interval on a track: a layer call made by the
// benchmark's harness, with the span that was open around it as Parent.
type Span struct {
	Name   string `json:"name"`
	Track  int    `json:"track"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same track's spans; -1 for a root
}

// Agg totals one span name: how often it ran, its inclusive time, and
// its self time (inclusive minus the time its child spans covered).
type Agg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// Tracer owns the tracks of one traced run. Every track shares the
// tracer's epoch, so spans on different goroutines line up in time.
type Tracer struct {
	epoch  time.Time
	keep   int // spans retained per track; aggregates cover every span
	tracks []*Track
	notes  map[string]any
}

// NewTracer returns a tracer that retains up to keep spans per track.
// Fine-grained calls (one per branch, say) are folded into their
// parent's aggregate instead of retained: see Track.Leaf.
func NewTracer(keep int) *Tracer {
	return &Tracer{epoch: time.Now(), keep: keep, notes: map[string]any{}}
}

// Note attaches a named value (a per-configuration breakdown, say) that
// WriteFile writes beside the spans.
func (t *Tracer) Note(name string, v any) { t.notes[name] = v }

// Track adds a track. A track belongs to one goroutine at a time; create
// every track before the goroutines that use it start.
func (t *Tracer) Track() *Track {
	k := &Track{tr: t, id: len(t.tracks), aggs: map[string]*Agg{}}
	t.tracks = append(t.tracks, k)
	return k
}

// Aggs merges every track's aggregates by span name. Call it only after
// the goroutines using the tracks have finished.
func (t *Tracer) Aggs() map[string]Agg {
	out := map[string]Agg{}
	for _, k := range t.tracks {
		for name, a := range k.aggs {
			m := out[name]
			m.Count += a.Count
			m.Total += a.Total
			m.Self += a.Self
			out[name] = m
		}
	}
	return out
}

// WriteFile writes the aggregates, notes and retained spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	var spans []Span
	for _, k := range t.tracks {
		spans = append(spans, k.spans...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Aggs  map[string]Agg `json:"aggregates"`
		Notes map[string]any `json:"notes"`
		Spans []Span         `json:"spans"`
	}{t.Aggs(), t.notes, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// open is a span that has begun and not yet ended.
type open struct {
	agg   *Agg
	start int64
	child int64 // time covered by ended children
	idx   int   // index in spans, -1 when not retained
}

// Track records the spans of one goroutine as a stack: a span begun
// while another is open is that span's child.
type Track struct {
	tr    *Tracer
	id    int
	stack []open
	spans []Span
	aggs  map[string]*Agg
}

// Now returns the time since the tracer's epoch in nanoseconds. It only
// reads the epoch, so any goroutine may call it.
func (k *Track) Now() int64 { return int64(time.Since(k.tr.epoch)) }

// Agg returns the aggregate for name, creating it. Hot wrappers look
// their aggregates up once and pass them to BeginAt and Leaf.
func (k *Track) Agg(name string) *Agg {
	a := k.aggs[name]
	if a == nil {
		a = &Agg{}
		k.aggs[name] = a
	}
	return a
}

// Begin opens a span named name now.
func (k *Track) Begin(name string) { k.BeginAt(k.Agg(name), name, k.Now()) }

// BeginAt opens a span at time t.
func (k *Track) BeginAt(a *Agg, name string, t int64) {
	idx := -1
	if len(k.spans) < k.tr.keep {
		parent := -1
		if n := len(k.stack); n > 0 {
			parent = k.stack[n-1].idx
		}
		idx = len(k.spans)
		k.spans = append(k.spans, Span{Name: name, Track: k.id, Start: t, End: t, Parent: parent})
	}
	k.stack = append(k.stack, open{agg: a, start: t, idx: idx})
}

// End closes the innermost open span now and returns its duration.
func (k *Track) End() int64 { return k.EndAt(k.Now()) }

// EndAt closes the innermost open span at time t and returns its
// duration.
func (k *Track) EndAt(t int64) int64 {
	n := len(k.stack) - 1
	o := k.stack[n]
	k.stack = k.stack[:n]
	dur := t - o.start
	o.agg.Count++
	o.agg.Total += dur
	o.agg.Self += dur - o.child
	if o.idx >= 0 {
		k.spans[o.idx].End = t
	}
	if n > 0 {
		k.stack[n-1].child += dur
	}
	return dur
}

// Leaf records a completed childless span from start to end under the
// innermost open span without retaining it: its time counts toward the
// parent's children and toward a's totals, so self time still adds up.
func (k *Track) Leaf(a *Agg, start, end int64) {
	dur := end - start
	a.Count++
	a.Total += dur
	a.Self += dur
	if n := len(k.stack); n > 0 {
		k.stack[n-1].child += dur
	}
}

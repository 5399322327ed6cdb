// Package ckpt is the serialization substrate for machine-state
// checkpoints: a versioned, deterministic binary container of named
// sections, plus primitive codecs every stateful component uses to
// write and read its own section.
//
// The container is deliberately simple — magic, format version, a
// sequence of (name, payload) sections, and a trailing FNV-64a content
// hash — so the encoding of a machine state is a pure function of that
// state: encode→decode→encode is byte-identical, which is what lets
// tests compare checkpoints for equality.
//
// Integer scalars use unsigned varints (zigzag for signed) so small
// counters stay small; bulk word arrays (register files, cache tag
// arrays) and floating-point values use fixed 8-byte little-endian
// words, because their bit patterns are arbitrary and a varint would
// inflate them. The Reader never panics on malformed input: every
// primitive bounds-checks and latches a sticky error, and length
// prefixes are validated against the bytes actually remaining, so a
// corrupted length cannot trigger a huge allocation.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// magic is the 8-byte container preamble; the trailing newline makes an
// accidental text file fail fast.
const magic = "PBSCKPT\n"

// Version is the container format version this build writes and the
// only one it reads. Bump it on any incompatible change to a section
// layout; old checkpoints are then rejected with a clear error instead
// of being misparsed. Version 2 encoded the timing model's
// functional-unit rings as cycle-ordered live cells, each cache as its
// touched chunks, and the Prob-BTB in strict key order. Version 3 keeps
// all of that and writes the timing model's single ROB ring (no commit
// ring, commit cursor, last-commit cycle or instruction index) plus
// its L1D line-streak register. Version 4 drops the sampling
// schedule's offset from the session config and the pipeline's
// detailed-warming flag from the sampler state. Version 5 writes the
// session's last Snapshot sample as the three component counter sets
// (emulator, timing, PBS unit) through Counters instead of one flat
// list; every component section is unchanged. Version 6 writes the
// session config as the JSON of sim.Config (plus the program hash) in
// place of a hand-written field list; every other section is
// unchanged. Version 7 checkpoints a whole stream group: the config
// section lists every member's configuration, each member writes its
// own predictor and pipeline section, and the session section writes
// the shared sampling-schedule state once, then each member's window
// populations. Version 8 drops the session's last Snapshot sample from
// the session section. Version 9 drops each cache's hit and miss
// counters from the pipeline section and the PBS hardware override from
// the session config. Version 10 writes each cache's touched sets in
// granules of 16 sets instead of chunks of 64. Version 11 writes each
// miss-event stage once, as a stage section holding its predictor, its
// trace-determined counters, line streaks and caches, and leaves each
// member's pipeline section only its schedule; the predictor sections
// go.
const Version = 11

// Checkpointable is the state-snapshot protocol implemented by every
// stateful simulator component. CheckpointState serializes the mutable
// state — never configuration, which the owner reconstructs — into the
// writer; RestoreState reads the same field sequence back, validating
// that the serialized shape matches the component's configured
// geometry. Implementations must be deterministic: the same state must
// encode to the same bytes.
type Checkpointable interface {
	CheckpointState(w *Writer) error
	RestoreState(r *Reader) error
}

// Writer accumulates one section's payload. The zero value is ready to
// use; Encoder.Section hands one out per section.
type Writer struct {
	buf []byte
}

// Uint appends an unsigned varint.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a signed (zigzag) varint.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U64 appends a fixed 8-byte little-endian word — for values with
// arbitrary high bits (hashes, packed tags) where a varint would cost
// up to 10 bytes.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Float appends a float64 as its fixed 8-byte IEEE-754 bit pattern.
func (w *Writer) Float(f float64) { w.U64(math.Float64bits(f)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Uint64s appends a length-prefixed []uint64 as fixed 8-byte words.
func (w *Writer) Uint64s(vs []uint64) {
	w.Uint(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Floats appends a length-prefixed []float64 as fixed 8-byte words.
func (w *Writer) Floats(vs []float64) {
	w.Uint(uint64(len(vs)))
	for _, v := range vs {
		w.Float(v)
	}
}

// Int8s appends a length-prefixed []int8 as raw bytes (two's
// complement), the natural shape of saturating-counter tables.
func (w *Writer) Int8s(vs []int8) {
	w.Uint(uint64(len(vs)))
	for _, v := range vs {
		w.buf = append(w.buf, byte(v))
	}
}

// Counters appends every field of the counter struct s in declaration
// order: each uint64 as a Uint, each int as an Int. s is a struct or a
// pointer to one; any other field type panics, so a counter struct
// cannot grow a field the codec would silently skip. Components declare
// a counter once and checkpoint it through here (see Reader.Counters).
func (w *Writer) Counters(s any) {
	v := reflect.Indirect(reflect.ValueOf(s))
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			w.Uint(f.Uint())
		case reflect.Int:
			w.Int(f.Int())
		default:
			badCounter(v, i)
		}
	}
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reader decodes one section's payload. Every primitive bounds-checks;
// the first malformed read latches a sticky error and subsequent reads
// return zero values, so restore code can decode an entire field
// sequence and check Err once.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps a raw payload — exposed for tests; Decoder.Section is
// the normal source of Readers.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Err returns the sticky decode error, nil if every read so far was
// well-formed.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.pos }

// Uint reads an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated or malformed varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Int reads a signed (zigzag) varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated or malformed varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Bool reads a single byte, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Len() < 1 {
		r.fail("truncated bool at offset %d", r.pos)
		return false
	}
	b := r.buf[r.pos]
	r.pos++
	if b > 1 {
		r.fail("malformed bool byte %#x at offset %d", b, r.pos-1)
		return false
	}
	return b == 1
}

// U64 reads a fixed 8-byte little-endian word.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail("truncated word at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// Float reads a fixed 8-byte IEEE-754 float64.
func (r *Reader) Float() float64 { return math.Float64frombits(r.U64()) }

// Counters reads the field sequence Writer.Counters wrote into the
// struct p points to.
func (r *Reader) Counters(p any) {
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(r.Uint())
		case reflect.Int:
			f.SetInt(r.Int())
		default:
			badCounter(v, i)
		}
	}
}

func badCounter(v reflect.Value, i int) {
	f := v.Type().Field(i)
	panic(fmt.Sprintf("ckpt: counter field %s.%s has unsupported type %s", v.Type(), f.Name, f.Type))
}

// length reads a count prefix and validates it against the bytes
// remaining at elemSize bytes per element, so a corrupted count cannot
// drive a huge allocation.
func (r *Reader) length(elemSize int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len())/uint64(elemSize) {
		r.fail("length %d exceeds remaining %d bytes at offset %d", n, r.Len(), r.pos)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.length(1)
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+n])
	r.pos += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Uint64s reads a length-prefixed []uint64 of fixed 8-byte words (nil
// for an empty one).
func (r *Reader) Uint64s() []uint64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return out
}

// Floats reads a length-prefixed []float64 (nil for an empty one).
func (r *Reader) Floats() []float64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
	}
	return out
}

// Int8s reads a length-prefixed []int8 (nil for an empty one).
func (r *Reader) Int8s() []int8 {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(r.buf[r.pos])
		r.pos++
	}
	return out
}

// Encoder assembles a checkpoint container from named sections. Section
// order is the caller's responsibility and is part of the encoding:
// callers must emit sections in a fixed order for byte-stability.
type Encoder struct {
	names []string
	secs  []*Writer
}

// NewEncoder returns an empty container builder.
func NewEncoder() *Encoder { return &Encoder{} }

// Section appends a new named section and returns its payload writer.
// Names must be unique; Encode rejects duplicates.
func (e *Encoder) Section(name string) *Writer {
	w := &Writer{}
	e.names = append(e.names, name)
	e.secs = append(e.secs, w)
	return w
}

// Encode serializes the container: magic, version, section count, each
// section as (name, payload) with length prefixes, then the FNV-64a
// hash of everything preceding it as a fixed 8-byte trailer.
func (e *Encoder) Encode() ([]byte, error) {
	seen := make(map[string]bool, len(e.names))
	total := len(magic) + 2*binary.MaxVarintLen64 + 8
	for i, name := range e.names {
		if seen[name] {
			return nil, fmt.Errorf("ckpt: duplicate section %q", name)
		}
		seen[name] = true
		total += 2*binary.MaxVarintLen64 + len(name) + e.secs[i].Len()
	}
	buf := make([]byte, 0, total)
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(e.names)))
	for i, name := range e.names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(e.secs[i].Len()))
		buf = append(buf, e.secs[i].buf...)
	}
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())
	return buf, nil
}

// Decoder parses a checkpoint container and serves its sections. It
// validates the magic, version, content hash, and framing up front;
// a Decoder that exists holds a structurally sound container.
type Decoder struct {
	names []string
	secs  map[string][]byte
}

// NewDecoder validates and indexes a container. It never panics:
// truncated, corrupted, or alien input returns an error.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < len(magic)+1+8 {
		return nil, fmt.Errorf("ckpt: truncated checkpoint (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: not a checkpoint (bad magic)")
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := binary.LittleEndian.Uint64(tail), h.Sum64(); got != want {
		return nil, fmt.Errorf("ckpt: corrupted checkpoint (content hash mismatch)")
	}
	r := NewReader(body[len(magic):])
	version := r.Uint()
	if r.Err() == nil && version != Version {
		return nil, fmt.Errorf("ckpt: unsupported checkpoint version %d (this build reads version %d)", version, Version)
	}
	nsecs := r.Uint()
	d := &Decoder{secs: make(map[string][]byte)}
	for i := uint64(0); i < nsecs && r.Err() == nil; i++ {
		name := r.String()
		payload := r.Bytes()
		if r.Err() != nil {
			break
		}
		if _, dup := d.secs[name]; dup {
			return nil, fmt.Errorf("ckpt: duplicate section %q", name)
		}
		d.names = append(d.names, name)
		d.secs[name] = payload
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: malformed checkpoint: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after last section", r.Len())
	}
	return d, nil
}

// Section returns a reader over the named section's payload, or false
// if the container has no such section.
func (d *Decoder) Section(name string) (*Reader, bool) {
	p, ok := d.secs[name]
	if !ok {
		return nil, false
	}
	return NewReader(p), true
}

// Sections lists the section names in container order.
func (d *Decoder) Sections() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

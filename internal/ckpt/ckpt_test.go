package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// sampleEncode builds a container exercising every primitive.
func sampleEncode(t testing.TB) []byte {
	t.Helper()
	enc := NewEncoder()
	w := enc.Section("alpha")
	w.Uint(0)
	w.Uint(1 << 60)
	w.Int(-42)
	w.Int(1)
	w.Bool(true)
	w.Bool(false)
	w.U64(0xdeadbeefcafef00d)
	w.Float(math.Pi)
	w.Float(math.Inf(-1))
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("tag")
	w.Uint64s([]uint64{7, 0, 1 << 63})
	w.Floats([]float64{0, -1.5})
	w.Int8s([]int8{-128, 0, 127})
	enc.Section("empty")
	w2 := enc.Section("beta")
	w2.Uint(99)
	data, err := enc.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

func TestRoundtrip(t *testing.T) {
	data := sampleEncode(t)
	dec, err := NewDecoder(data)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := dec.Sections(); len(got) != 3 || got[0] != "alpha" || got[1] != "empty" || got[2] != "beta" {
		t.Fatalf("Sections = %v", got)
	}
	r, ok := dec.Section("alpha")
	if !ok {
		t.Fatal("missing section alpha")
	}
	if v := r.Uint(); v != 0 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Uint(); v != 1<<60 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int(); v != 1 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Bool(); !v {
		t.Error("Bool = false")
	}
	if v := r.Bool(); v {
		t.Error("Bool = true")
	}
	if v := r.U64(); v != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.Float(); v != math.Pi {
		t.Errorf("Float = %v", v)
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Errorf("Float = %v", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(); v != "tag" {
		t.Errorf("String = %q", v)
	}
	if v := r.Uint64s(); len(v) != 3 || v[0] != 7 || v[1] != 0 || v[2] != 1<<63 {
		t.Errorf("Uint64s = %v", v)
	}
	if v := r.Floats(); len(v) != 2 || v[0] != 0 || v[1] != -1.5 {
		t.Errorf("Floats = %v", v)
	}
	if v := r.Int8s(); len(v) != 3 || v[0] != -128 || v[1] != 0 || v[2] != 127 {
		t.Errorf("Int8s = %v", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after full read: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left unread", r.Len())
	}
	if _, ok := dec.Section("gamma"); ok {
		t.Error("Section(gamma) found a section that was never written")
	}
}

// TestReencodeByteStable: decode and rebuild the container — the bytes
// must match exactly, the property the sim layer's checkpoint identity
// tests rest on.
func TestReencodeByteStable(t *testing.T) {
	data := sampleEncode(t)
	dec, err := NewDecoder(data)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	enc := NewEncoder()
	for _, name := range dec.Sections() {
		r, _ := dec.Section(name)
		w := enc.Section(name)
		w.buf = append(w.buf, r.buf...)
	}
	again, err := enc.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded container differs: %d vs %d bytes", len(data), len(again))
	}
}

// TestTruncation: every proper prefix must fail cleanly, never panic.
func TestTruncation(t *testing.T) {
	data := sampleEncode(t)
	for i := 0; i < len(data); i++ {
		if _, err := NewDecoder(data[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(data))
		}
	}
}

// TestCorruption: any single-byte flip is caught by the content hash.
func TestCorruption(t *testing.T) {
	data := sampleEncode(t)
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := NewDecoder(mut); err == nil {
			t.Fatalf("flip at byte %d decoded without error", i)
		}
	}
}

// rehash recomputes the trailing content hash after a deliberate body
// mutation, so framing errors are tested past the hash check.
func rehash(data []byte) []byte {
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

func TestVersionMismatch(t *testing.T) {
	data := sampleEncode(t)
	// The version varint is the byte right after the magic (any version
	// below 128 encodes as one byte). Both a future version and the
	// previous one (v1, whose sections were laid out differently) must be
	// rejected by name.
	for _, v := range []byte{Version + 1, Version - 1} {
		mut := append([]byte(nil), data...)
		mut[len(magic)] = v
		mut = rehash(mut)
		_, err := NewDecoder(mut)
		if err == nil {
			t.Fatalf("version %d decoded without error", v)
		}
		if !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Fatalf("version %d error not clear: %v", v, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data := sampleEncode(t)
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	mut = rehash(mut)
	if _, err := NewDecoder(mut); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestDuplicateSection(t *testing.T) {
	enc := NewEncoder()
	enc.Section("dup")
	enc.Section("dup")
	if _, err := enc.Encode(); err == nil {
		t.Fatal("Encode accepted duplicate section names")
	}
}

// TestReaderSticky: after the first malformed read, every later read
// returns zeros and Err stays on the first failure.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{0x80}) // unterminated varint
	if v := r.Uint(); v != 0 {
		t.Errorf("Uint on malformed input = %d", v)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("no error after malformed varint")
	}
	if v := r.U64(); v != 0 {
		t.Errorf("U64 after error = %d", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("Bytes after error = %v", v)
	}
	if r.Err() != first {
		t.Error("sticky error was replaced")
	}
}

// TestLengthBomb: a huge length prefix must error, not allocate.
func TestLengthBomb(t *testing.T) {
	var w Writer
	w.Uint(1 << 40) // claims a petabyte-scale array
	r := NewReader(w.buf)
	if v := r.Uint64s(); v != nil || r.Err() == nil {
		t.Fatalf("oversized length accepted: %v, err=%v", v, r.Err())
	}
}

func TestBoolByteValidation(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(sampleEncode(f))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(data)
		if err != nil {
			return
		}
		// A container that decodes must re-encode byte-identically.
		enc := NewEncoder()
		for _, name := range dec.Sections() {
			r, ok := dec.Section(name)
			if !ok {
				t.Fatalf("listed section %q not retrievable", name)
			}
			w := enc.Section(name)
			w.buf = append(w.buf, r.buf...)
		}
		again, err := enc.Encode()
		if err != nil {
			t.Fatalf("re-Encode of decoded container: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("decode→encode not byte-stable (%d vs %d bytes)", len(data), len(again))
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	words := make([]uint64, 4096)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		w := enc.Section("bulk")
		w.Uint64s(words)
		if _, err := enc.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCounters: the counter codec writes a struct's uint64 and int
// fields in declaration order with the scalar primitives, reads them
// back, and refuses a struct with any other field type.
func TestCounters(t *testing.T) {
	type counters struct {
		A uint64
		B int
		C uint64
	}
	in := counters{A: 1 << 60, B: -42, C: 7}
	var w Writer
	w.Counters(&in)
	var manual Writer
	manual.Uint(in.A)
	manual.Int(int64(in.B))
	manual.Uint(in.C)
	if !bytes.Equal(w.buf, manual.buf) {
		t.Errorf("Counters wrote %x, field-by-field primitives write %x", w.buf, manual.buf)
	}
	var out counters
	r := NewReader(w.buf)
	r.Counters(&out)
	if r.Err() != nil || out != in || r.Len() != 0 {
		t.Errorf("round trip: got %+v (err %v, %d bytes left), want %+v", out, r.Err(), r.Len(), in)
	}
	r = NewReader(w.buf[:len(w.buf)-1])
	r.Counters(&out)
	if r.Err() == nil {
		t.Error("truncated counters decoded without error")
	}

	defer func() {
		if recover() == nil {
			t.Error("Counters accepted a float field")
		}
	}()
	w.Counters(struct{ X float64 }{1})
}

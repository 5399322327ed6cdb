package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCache is the unpacked struct-per-line model the packed tag+valid
// layout replaced, kept verbatim as the reference for the equivalence
// test below: same LRU bookkeeping, same two-pass victim selection.
type refCache struct {
	sets     [][]refLine
	setMask  uint64
	lineBits uint
	clock    uint64
}

type refLine struct {
	valid bool
	tag   uint64
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	c := &refCache{setMask: uint64(nSets - 1), lineBits: lineBits}
	c.sets = make([][]refLine, nSets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

func (c *refCache) access(addr uint64) bool {
	c.clock++
	block := addr >> c.lineBits
	set := c.sets[block&c.setMask]
	tag := block >> 1
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = refLine{valid: true, tag: tag, lru: c.clock}
	return false
}

// TestPackedMatchesReference drives the packed implementation and the
// unpacked reference over the same address streams and requires
// identical per-access outcomes — the "byte-identical miss counts" bar
// the packed fast path must meet.
func TestPackedMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 1},
		L1I32K(), L1D32K(), L2Unified2M(),
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg)
		r := rand.New(rand.NewSource(42))
		var hits, misses int
		// A mix of tight reuse (hits), strided conflicts (evictions) and
		// cold addresses (fills), biased so every path runs often.
		for i := 0; i < 200_000; i++ {
			var addr uint64
			switch r.Intn(3) {
			case 0:
				addr = uint64(r.Intn(2 * cfg.SizeBytes))
			case 1:
				addr = uint64(r.Intn(64)) * uint64(cfg.SizeBytes/cfg.Ways)
			default:
				addr = r.Uint64() >> r.Intn(40)
			}
			if got, want := c.Access(addr), ref.access(addr); got != want {
				t.Fatalf("%+v: access %d addr %#x: packed hit=%v, reference hit=%v", cfg, i, addr, got, want)
			} else if got {
				hits++
			} else {
				misses++
			}
		}
		if misses == 0 || hits == 0 {
			t.Fatalf("%+v: degenerate stream (hits %d, misses %d)", cfg, hits, misses)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	c, err := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Error("same line must hit")
	}
	if c.Access(64) {
		t.Error("next line must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
	c, err := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0)
	c.Access(512)
	c.Access(0)    // 0 is now MRU
	c.Access(1024) // evicts 512 (LRU)
	if !c.Access(0) {
		t.Error("MRU line evicted")
	}
	if c.Access(512) {
		t.Error("LRU line not evicted")
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 60, Ways: 2},
		{SizeBytes: 1024, LineBytes: 64, Ways: 3},
		{SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2}, // 3 sets
		{SizeBytes: 1 << 40, LineBytes: 64, Ways: 16},   // 2^34 lines: tag words beyond the index range
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted bad geometry %+v", cfg)
		}
	}
}

func TestWorkingSetProperty(t *testing.T) {
	// Property: any working set that fits entirely in the cache has no
	// misses after the first pass.
	f := func(seed uint8) bool {
		c, err := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 1})
		if err != nil {
			return false
		}
		nLines := 4096 / 64
		misses := 0
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < nLines; i++ {
				if !c.Access(uint64(i*64 + int(seed)%64)) {
					misses++
				}
			}
		}
		return misses == nLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	l1i := Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1}
	l1d := Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 4}
	l2 := Config{SizeBytes: 8192, LineBytes: 64, Ways: 4, HitLatency: 12}
	const memLatency = 100
	h, err := NewHierarchy(l1i, l1d, l2)
	if err != nil {
		t.Fatal(err)
	}
	// access serves addr through l1 and then the L2, the way the timing
	// model does, with the latency of the level that served it.
	access := func(l1 *Cache, addr uint64) (int, Level) {
		if l1.Access(addr) {
			return l1.Config().HitLatency, LevelL1
		}
		if h.L2.Access(addr) {
			return l2.HitLatency, LevelL2
		}
		return memLatency, LevelMem
	}
	check := func(what string, lat int, lvl Level, wantLat int, wantLvl Level) {
		t.Helper()
		if lat != wantLat || lvl != wantLvl {
			t.Errorf("%s: latency %d at level %d, want %d at level %d", what, lat, lvl, wantLat, wantLvl)
		}
	}
	lat, lvl := access(h.L1D, 0)
	check("cold data access", lat, lvl, 100, LevelMem)
	lat, lvl = access(h.L1D, 0)
	check("warm L1D", lat, lvl, 4, LevelL1)
	// Evict from L1D but not L2: touch enough conflicting lines.
	for i := 1; i <= 4; i++ {
		access(h.L1D, uint64(i*512))
	}
	lat, lvl = access(h.L1D, 0)
	check("L2 hit", lat, lvl, 12, LevelL2)
	lat, lvl = access(h.L1I, 1<<20)
	check("cold fetch", lat, lvl, 100, LevelMem)
	lat, lvl = access(h.L1I, 1<<20)
	check("warm L1I", lat, lvl, 1, LevelL1)
}

func TestPaperGeometries(t *testing.T) {
	for _, cfg := range []Config{L1I32K(), L1D32K(), L2Unified2M()} {
		if _, err := New(cfg); err != nil {
			t.Errorf("paper geometry rejected: %+v: %v", cfg, err)
		}
	}
	if L2Unified2M().SizeBytes != 2<<20 {
		t.Error("L2 size wrong")
	}
}

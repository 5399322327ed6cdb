// Package cache models set-associative caches with LRU replacement and the
// two-level hierarchy of the paper's simulated machine (32 KB split L1 I/D
// + unified 2 MB L2, §VI-B).
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
}

// L1I32K returns the paper's 32 KB instruction cache configuration.
func L1I32K() Config { return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1} }

// L1D32K returns the paper's 32 KB data cache configuration.
func L1D32K() Config { return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4} }

// L2Unified2M returns the paper's 2 MB unified L2 configuration.
func L2Unified2M() Config { return Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 16, HitLatency: 12} }

// validBit marks a way as holding a line in the packed tag word. Tags
// are block>>1 with block = addr>>lineBits, so for any address below
// 2^63 the tag cannot collide with the bit.
const validBit uint64 = 1 << 63

// chunkSets is the allocation granule: tag and LRU storage for this
// many consecutive sets is allocated by the first access that reaches
// one of them. A run pays only for the sets its accesses touch — a short
// run's L1 misses reach a few chunks of the 2 MB L2, not its 512 KiB of
// tag and LRU words — and an untouched chunk behaves exactly like a
// zeroed one (every way invalid), so replacement is unchanged.
const chunkSets = 64

// Cache is one set-associative cache level. Tag and valid state are
// packed into one uint64 per way (validBit | tag), so the hit scan — the
// timing model runs one per fetched instruction — is a handful of
// contiguous single-word compares with no struct field loads. Each set
// is stored as its ways' tags followed by their last-touch LRU clocks,
// so a hit's clock update lands next to the tag it matched; sets are
// grouped into lazily allocated chunks of chunkSets (see chunkSets).
type Cache struct {
	cfg      Config
	chunks   [][]uint64 // per chunk of sets: nil until touched, else set-major [tags | lru] words
	ways     int
	setMask  uint64
	lineBits uint
	clock    uint64
}

// New builds a cache. Size, line size and ways must describe a power-of-two
// number of sets. No tag storage is allocated until an access needs it.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, cfg.Ways)
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", nSets)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", cfg.LineBytes)
	}
	c := &Cache{cfg: cfg, ways: cfg.Ways, setMask: uint64(nSets - 1), lineBits: lineBits}
	c.chunks = make([][]uint64, (nSets+chunkSets-1)/chunkSets)
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// alloc allocates zeroed (all ways invalid) storage for chunk i.
func (c *Cache) alloc(i uint64) []uint64 {
	ch := make([]uint64, min(chunkSets, int(c.setMask)+1)*2*c.ways)
	c.chunks[i] = ch
	return ch
}

// Access looks up addr, filling the line on a miss, and reports whether it
// hit. The hit scan compares one packed word per way — valid bit and tag
// together — and does no victim bookkeeping; the victim is chosen by a
// second pass only on a miss (same selection as a single combined pass,
// since a hit returns before any replacement happens). Replacement
// decisions, and therefore hits and misses, are bit-for-bit those of
// the unpacked struct-per-line layout this replaced.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	block := addr >> c.lineBits
	set := block & c.setMask
	ch := c.chunks[set/chunkSets]
	if ch == nil {
		ch = c.alloc(set / chunkSets)
	}
	// A hit slices only the tags and stores the matched way's clock by
	// index; slicing the clocks up front as well cost an L1 hit about a
	// tenth more.
	base := int(set%chunkSets) * 2 * c.ways
	tags := ch[base : base+c.ways]
	// Keep set bits out of the tag (harmless overlap otherwise); the
	// shifted block stays below validBit for any address under 2^63.
	tag := block>>1 | validBit
	for i := range tags {
		if tags[i] == tag {
			ch[base+c.ways+i] = c.clock
			return true
		}
	}
	lru := ch[base+c.ways : base+2*c.ways]
	victim := 0
	for i := range tags {
		if tags[i]&validBit == 0 {
			victim = i
		} else if tags[victim]&validBit != 0 && lru[i] < lru[victim] {
			victim = i
		}
	}
	tags[victim] = tag
	lru[victim] = c.clock
	return false
}

// Hierarchy is a two-level hierarchy with split L1 and unified L2.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int
}

// NewHierarchy builds the hierarchy from per-level configurations.
func NewHierarchy(l1i, l1d, l2 Config, memLatency int) (*Hierarchy, error) {
	ci, err := New(l1i)
	if err != nil {
		return nil, err
	}
	cd, err := New(l1d)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: ci, L1D: cd, L2: c2, MemLatency: memLatency}, nil
}

// Level names the hierarchy level that served an access.
type Level uint8

const (
	LevelL1  Level = iota // L1 hit
	LevelL2               // L1 miss, L2 hit
	LevelMem              // missed both levels
)

// InstrLatency returns the access latency for an instruction fetch and
// the level that served it.
func (h *Hierarchy) InstrLatency(addr uint64) (int, Level) { return h.access(h.L1I, addr) }

// DataLatency returns the access latency for a data access and the
// level that served it.
func (h *Hierarchy) DataLatency(addr uint64) (int, Level) { return h.access(h.L1D, addr) }

func (h *Hierarchy) access(l1 *Cache, addr uint64) (int, Level) {
	if l1.Access(addr) {
		return l1.cfg.HitLatency, LevelL1
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.HitLatency, LevelL2
	}
	return h.MemLatency, LevelMem
}

// Package cache models set-associative caches with LRU replacement and the
// two-level hierarchy of the paper's simulated machine (32 KB split L1 I/D
// + unified 2 MB L2, §VI-B).
package cache

import (
	"fmt"
	"math"
	"sync"
)

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

// granuleSets is the allocation granule: tag and LRU storage for this
// many consecutive sets is allocated by the first access that reaches
// one of them. A run pays only for the sets its accesses touch — a short
// run's L1 misses reach a few dozen of the 2 MB L2's 2,048 sets, not its
// 512 KiB of tag and LRU words — and an untouched granule behaves
// exactly like a zeroed one (every way invalid), so replacement is
// unchanged. Finer granules store less but index more: on the grid
// benchmark, granules of 1, 4, 16 and 64 sets allocated about 420, 395,
// 386 and 437 bytes per thousand instructions, since the per-granule
// index of the L2 alone takes 8 KiB at one set a granule.
const granuleSets = 16

// Cache is one set-associative cache level. Tag and valid state are
// packed into one uint64 per way (validBit | tag), so the hit scan — the
// timing model runs one per fetched instruction line — is a handful of
// contiguous single-word compares with no struct field loads. Each set
// is stored as its ways' tags followed by their last-touch LRU clocks,
// so a hit's clock update lands next to the tag it matched. Sets are
// grouped into granules of granuleSets, stored back to back in one
// slice in the order a run first touches them; a per-granule index of
// word offsets finds a set's words with one load.
type Cache struct {
	cfg      Config
	index    []uint32 // per granule: 0 until touched, else 1 + the offset of its words in words
	words    []uint64 // the touched granules, each set-major [tags | lru] words
	ways     int
	setMask  uint64
	lineBits uint
	clock    uint64
}

// New builds a cache. Size, line size and ways must describe a power-of-two
// number of sets. No tag storage is allocated until an access needs it.
func New(cfg Config) (*Cache, error) {
	c := new(Cache)
	if err := c.reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// reset empties the cache and gives it geometry cfg, keeping the
// capacity of its granule slab and index: every way is invalid, and
// granules are again laid out in the order a run first touches them.
func (c *Cache) reset(cfg Config) error {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines%cfg.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, cfg.Ways)
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", nSets)
	}
	if uint64(nLines)*2 >= math.MaxUint32 {
		return fmt.Errorf("cache: %d lines exceed the tag index range", nLines)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		return fmt.Errorf("cache: line size %d is not a power of two", cfg.LineBytes)
	}
	index := c.index
	if n := (nSets + granuleSets - 1) / granuleSets; cap(index) < n {
		index = make([]uint32, n)
	} else {
		index = index[:n]
		clear(index)
	}
	*c = Cache{cfg: cfg, index: index, words: c.words[:0], ways: cfg.Ways, setMask: uint64(nSets - 1), lineBits: lineBits}
	return nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// granuleWords is the length of one granule's storage.
func (c *Cache) granuleWords() int { return min(granuleSets, int(c.setMask)+1) * 2 * c.ways }

// alloc appends zeroed (all ways invalid) storage for granule g and
// returns its index entry. The slice doubles when full, so a run's
// storage costs at most about twice what it touches.
func (c *Cache) alloc(g uint64) uint32 {
	n := len(c.words)
	need := n + c.granuleWords()
	if need > cap(c.words) {
		grown := make([]uint64, n, max(2*cap(c.words), need))
		copy(grown, c.words)
		c.words = grown
	}
	c.words = c.words[:need]
	clear(c.words[n:])
	c.index[g] = uint32(n) + 1
	return uint32(n) + 1
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
	off := c.index[set/granuleSets]
	if off == 0 {
		off = c.alloc(set / granuleSets)
	}
	// A hit slices only the tags and stores the matched way's clock by
	// index; slicing the clocks up front as well cost an L1 hit about a
	// tenth more.
	ch := c.words
	base := int(off) - 1 + int(set%granuleSets)*2*c.ways
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

// Hierarchy is a two-level hierarchy with split L1 and unified L2. It
// holds the levels' contents; the timing model looks them up in order
// and charges the latency of the level that served an access.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
}

// hierPool holds released hierarchies (see Hierarchy.Release).
var hierPool sync.Pool

// NewHierarchy builds the hierarchy from per-level configurations, on
// the storage of a released one when there is one (see Release).
func NewHierarchy(l1i, l1d, l2 Config) (*Hierarchy, error) {
	h, ok := hierPool.Get().(*Hierarchy)
	if !ok {
		h = &Hierarchy{L1I: new(Cache), L1D: new(Cache), L2: new(Cache)}
	}
	if err := h.L1I.reset(l1i); err != nil {
		return nil, err
	}
	if err := h.L1D.reset(l1d); err != nil {
		return nil, err
	}
	if err := h.L2.reset(l2); err != nil {
		return nil, err
	}
	return h, nil
}

// Release hands the hierarchy's granule slabs and indices back for a
// later NewHierarchy to reuse, which empties them first; h must not be
// used afterwards.
func (h *Hierarchy) Release() { hierPool.Put(h) }

// Level names the hierarchy level that served an access.
type Level uint8

const (
	LevelL1  Level = iota // L1 hit
	LevelL2               // L1 miss, L2 hit
	LevelMem              // missed both levels
)

package branch

// Bimodal is a classic table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	ctrs []uint8
	mask uint64
}

// NewBimodal builds a bimodal predictor with entries counters (must be a
// power of two).
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: bimodal entries must be a positive power of two")
	}
	b := &Bimodal{ctrs: make([]uint8, entries), mask: uint64(entries - 1)}
	b.reset()
	return b
}

func (b *Bimodal) idx(pc uint64) uint64 { return mix(pc) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.ctrs[b.idx(pc)] >= 2 }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken, _ bool) {
	i := b.idx(pc)
	if taken {
		b.ctrs[i] = ctrInc(b.ctrs[i], 3)
	} else {
		b.ctrs[i] = ctrDec(b.ctrs[i])
	}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// SizeBits returns the hardware storage budget in bits.
func (b *Bimodal) SizeBits() int { return 2 * len(b.ctrs) }

// reset sets the power-on state.
func (b *Bimodal) reset() {
	for i := range b.ctrs {
		b.ctrs[i] = 1 // weakly not-taken
	}
}

// GShare is a global-history predictor: the PC is XOR-ed with the global
// branch history to index a table of 2-bit counters.
type GShare struct {
	ctrs    []uint8
	mask    uint64
	hist    uint64
	histLen uint
}

// NewGShare builds a gshare predictor with entries counters (power of two)
// and histLen bits of global history.
func NewGShare(entries int, histLen uint) *GShare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: gshare entries must be a positive power of two")
	}
	if histLen > 32 {
		panic("branch: gshare history too long")
	}
	g := &GShare{ctrs: make([]uint8, entries), mask: uint64(entries - 1), histLen: histLen}
	g.reset()
	return g
}

func (g *GShare) idx(pc uint64) uint64 {
	return (mix(pc) ^ (g.hist << 3)) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.ctrs[g.idx(pc)] >= 2 }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken, _ bool) {
	i := g.idx(pc)
	if taken {
		g.ctrs[i] = ctrInc(g.ctrs[i], 3)
	} else {
		g.ctrs[i] = ctrDec(g.ctrs[i])
	}
	g.hist = ((g.hist << 1) | b2u(taken)) & ((1 << g.histLen) - 1)
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

// SizeBits returns the hardware storage budget in bits.
func (g *GShare) SizeBits() int { return 2*len(g.ctrs) + int(g.histLen) }

// reset sets the power-on state.
func (g *GShare) reset() {
	for i := range g.ctrs {
		g.ctrs[i] = 1
	}
	g.hist = 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

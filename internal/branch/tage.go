package branch

// TAGE with a statistical corrector and a loop predictor (TAGE-SC-L),
// following Seznec's CBP-5 design at a reduced ~8 KB budget (the paper's
// stronger baseline, §VI-B). The TAGE component uses a bimodal base table
// plus tagged tables indexed with geometrically increasing global history
// lengths; the statistical corrector is a small GEHL-style adder tree; the
// loop component captures fixed trip counts.

// histBufSize is the circular global-history capacity (must exceed the
// longest table history).
const histBufSize = 256

// histBuf is a circular shift register of branch outcomes. histBufSize is
// a power of two so position arithmetic is a mask, not a division — the
// folded-history advance reads one tap per distinct history length from
// this buffer on every predictor update.
type histBuf struct {
	bits [histBufSize]uint8
	ptr  uint32
}

func (h *histBuf) push(bit uint8) {
	h.ptr = (h.ptr - 1) & (histBufSize - 1)
	h.bits[h.ptr] = bit
}

// at returns the bit i positions back (0 = most recent).
func (h *histBuf) at(i uint32) uint8 {
	return h.bits[(h.ptr+i)&(histBufSize-1)]
}

// foldedHist incrementally folds origLen bits of global history into a
// compLen-bit register (the standard TAGE folded-register trick). The
// register width is not stored: every fold in TAGESCL has a compile-time
// width, which its callers pass as a constant so the shifts and masks
// below are immediates once inlined.
type foldedHist struct {
	comp     uint32
	origLen  uint
	outpoint uint
}

func newFolded(origLen, compLen uint) foldedHist {
	return foldedHist{origLen: origLen, outpoint: origLen % compLen}
}

func (f *foldedHist) update(h *histBuf, compLen uint) {
	f.updateBits(h.at(0), h.at(uint32(f.origLen)), compLen)
}

// updateBits advances the fold given the incoming bit (the outcome just
// pushed) and the outgoing bit (the one falling off the origLen window).
// Splitting the bits out lets TAGESCL.Update fetch each distinct
// history tap once and feed every fold that shares it, instead of
// walking the circular buffer 21 times per update.
func (f *foldedHist) updateBits(in, out uint8, compLen uint) {
	f.comp = (f.comp << 1) | uint32(in)
	f.comp ^= uint32(out) << f.outpoint
	f.comp ^= f.comp >> compLen
	f.comp &= (1 << compLen) - 1
}

// Geometry of the ~8 KB TAGE-SC-L: a 2K-entry bimodal base, six
// 512-entry tagged tables with 9-bit tags and history lengths 4..80, a
// statistical corrector with a 512-entry bias table and three 256-entry
// GEHL components, and a 64-entry loop predictor. Compile-time constants
// let every index, tag and fold shift by an immediate and let the fixed
// arrays below drop their bounds checks.
const (
	tageBaseBits = 11
	tageIdxBits  = 9
	tageTagBits  = 9
	tageTables   = 6
	tageLoops    = 64
	scBiasRows   = 512
	scFoldBits   = 8
	scRows       = 1 << scFoldBits
	scTables     = 3
)

var (
	tageHistLens = [tageTables]uint{4, 7, 13, 24, 44, 80}
	scHistLens   = [scTables]uint{4, 11, 27}
)

// tageEntry is one tagged-table row.
type tageEntry struct {
	tag uint16
	ctr int8  // 3-bit signed: -4..3; taken when >= 0
	u   uint8 // 2-bit useful counter
}

type tageTable struct {
	entries  [1 << tageIdxBits]tageEntry
	idxFold  foldedHist // folded to tageIdxBits
	tagFold1 foldedHist // folded to tageTagBits
	tagFold2 foldedHist // folded to tageTagBits-1
}

// index and tag take the pre-mixed PC hash (mix(pc)) rather than the raw
// PC: Predict computes the hash once and reuses it across all six tables
// and the statistical corrector.
func (t *tageTable) index(m uint64) uint32 {
	h := uint32(m) ^ uint32(m>>tageIdxBits) ^ t.idxFold.comp
	return h & (1<<tageIdxBits - 1)
}

func (t *tageTable) tag(m uint64) uint16 {
	h := uint32(m>>32) ^ t.tagFold1.comp ^ (t.tagFold2.comp << 1)
	return uint16(h & (1<<tageTagBits - 1))
}

// TAGESCL is the composed TAGE-SC-L predictor.
type TAGESCL struct {
	base   [1 << tageBaseBits]uint8 // bimodal base, 2-bit counters
	tables [tageTables]tageTable
	hist   histBuf

	loop *LoopPredictor

	// Statistical corrector: a bias table indexed by pc and the TAGE
	// prediction, plus GEHL components over global history prefixes.
	scBias    [scBiasRows]int8
	scTables  [scTables][scRows]int8
	scFolds   [scTables]foldedHist // folded to scFoldBits
	scThresh  int32
	scThreshC int8 // adaptive threshold trim counter

	useAltOnNA int8 // use alt-prediction for weak providers
	tick       uint32
	lfsr       uint32

	// prediction state carried from Predict to Update
	p tagePredState

	// Per-PC index/tag computations shared between Predict and Update:
	// Predict fills these once per branch and Update's training and
	// allocation paths reuse them instead of re-hashing. Valid because
	// the folded histories only advance at the end of Update.
	idxBuf   [tageTables]uint32
	tagBuf   [tageTables]uint16
	scIdxBuf [scTables]int

	// Shared-history advance plan, built at construction. foldTaps lists
	// the distinct history lengths folded anywhere in the predictor (8:
	// six table lengths plus two extra corrector lengths); tabSlot/scSlot
	// map each table / corrector component to its outgoing tap's
	// position in foldOut. Update reads each distinct tap from the
	// circular history once per branch and fans it out to every folded
	// register sharing that length — the registers themselves stay
	// embedded in their tables, where the checkpoint code serializes
	// them in place.
	foldTaps []uint32
	foldOut  []uint8
	tabSlot  [tageTables]uint8
	scSlot   [scTables]uint8
}

type tagePredState struct {
	provider   int // table index, -1 = base
	providerIx uint32
	altPred    bool
	tagePred   bool
	weak       bool
	scSum      int32
	scUsed     bool
	scBiasIdx  int
	loopHit    bool
	loopPred   bool
	finalPred  bool
}

// NewTAGESCL builds the ~8 KB TAGE-SC-L (see the geometry constants),
// on the tables of a released one when there is one (see Release).
func NewTAGESCL() *TAGESCL {
	if t, ok := tagePool.Get().(*TAGESCL); ok {
		t.reset()
		return t
	}
	t := &TAGESCL{loop: NewLoopPredictor(tageLoops)}
	slotOf := func(l uint) uint8 {
		for i, tap := range t.foldTaps {
			if tap == uint32(l) {
				return uint8(i)
			}
		}
		t.foldTaps = append(t.foldTaps, uint32(l))
		return uint8(len(t.foldTaps) - 1)
	}
	for i, hl := range tageHistLens {
		tb := &t.tables[i]
		tb.idxFold = newFolded(hl, tageIdxBits)
		tb.tagFold1 = newFolded(hl, tageTagBits)
		tb.tagFold2 = newFolded(hl, tageTagBits-1)
		t.tabSlot[i] = slotOf(hl)
	}
	for i, hl := range scHistLens {
		t.scFolds[i] = newFolded(hl, scFoldBits)
		t.scSlot[i] = slotOf(hl)
	}
	t.foldOut = make([]uint8, len(t.foldTaps))
	t.reset()
	return t
}

func (t *TAGESCL) rand2() uint32 {
	// 16-bit Galois LFSR for allocation randomisation.
	lsb := t.lfsr & 1
	t.lfsr >>= 1
	if lsb != 0 {
		t.lfsr ^= 0xb400
	}
	return t.lfsr
}

// The helpers below all take the pre-mixed PC hash; see tageTable.index.
func (t *TAGESCL) baseIdx(m uint64) uint64 { return m & (1<<tageBaseBits - 1) }

func (t *TAGESCL) basePred(m uint64) bool { return t.base[t.baseIdx(m)] >= 2 }

func (t *TAGESCL) scIndexBias(m uint64, tagePred bool) int {
	return int((m<<1 | b2u(tagePred)) & (scBiasRows - 1))
}

func (t *TAGESCL) scIndex(i int, m uint64) int {
	return int((uint32(m) ^ t.scFolds[i].comp ^ uint32(i)*0x9e37) & (scRows - 1))
}

// Predict implements Predictor.
func (t *TAGESCL) Predict(pc uint64) bool {
	p := tagePredState{provider: -1}
	m := mix(pc)

	// Hash every table's index and tag for this PC once; Update reuses
	// the buffers for training and allocation (the folded histories do
	// not advance until the end of Update, so the values stay exact).
	for i := range t.tables {
		t.idxBuf[i] = t.tables[i].index(m)
		t.tagBuf[i] = t.tables[i].tag(m)
	}

	// TAGE lookup: longest history match provides, next match is alt.
	p.altPred = t.basePred(m)
	altSet := false
	for i := len(t.tables) - 1; i >= 0; i-- {
		tb := &t.tables[i]
		ix := t.idxBuf[i]
		if tb.entries[ix].tag == t.tagBuf[i] {
			if p.provider < 0 {
				p.provider = i
				p.providerIx = ix
			} else if !altSet {
				p.altPred = tb.entries[ix].ctr >= 0
				altSet = true
				break
			}
		}
	}
	if p.provider >= 0 {
		e := t.tables[p.provider].entries[p.providerIx]
		p.tagePred = e.ctr >= 0
		p.weak = e.ctr == 0 || e.ctr == -1
		if p.weak && t.useAltOnNA >= 0 {
			p.tagePred = p.altPred
		}
	} else {
		p.tagePred = p.altPred
	}

	// Statistical corrector.
	p.scBiasIdx = t.scIndexBias(m, p.tagePred)
	sum := int32(2*t.scBias[p.scBiasIdx]) + 1
	for i := range t.scTables {
		t.scIdxBuf[i] = t.scIndex(i, m)
		sum += int32(2*t.scTables[i][t.scIdxBuf[i]]) + 1
	}
	if !p.tagePred {
		sum = -sum
	}
	// sum > 0 agrees with tagePred, sum < 0 argues for the inverse.
	p.scSum = sum
	p.finalPred = p.tagePred
	if sum < 0 && -sum >= t.scThresh {
		p.scUsed = true
		p.finalPred = !p.tagePred
	}

	// Loop predictor overrides when confident.
	if lp, hit := t.loop.Lookup(pc); hit {
		p.loopHit = true
		p.loopPred = lp
		p.finalPred = lp
	}

	t.p = p
	return p.finalPred
}

// Update implements Predictor.
func (t *TAGESCL) Update(pc uint64, taken, _ bool) {
	p := t.p

	t.loop.Update(pc, taken)

	// Statistical corrector training (O-GEHL style: train on wrong or
	// low-confidence sums), with adaptive threshold.
	scPred := p.tagePred
	if p.scUsed {
		scPred = !p.tagePred
	}
	mag := p.scSum
	if mag < 0 {
		mag = -mag
	}
	if scPred != taken || mag < t.scThresh {
		i := p.scBiasIdx
		t.scBias[i] = sctrUpdate(t.scBias[i], taken, 31)
		for k := range t.scTables {
			j := t.scIdxBuf[k]
			t.scTables[k][j] = sctrUpdate(t.scTables[k][j], taken, 31)
		}
	}
	if p.scUsed {
		if scPred != taken {
			if t.scThreshC < 63 {
				t.scThreshC++
			}
			if t.scThreshC == 63 && t.scThresh < 128 {
				t.scThresh++
				t.scThreshC = 0
			}
		} else if p.tagePred != taken {
			if t.scThreshC > -63 {
				t.scThreshC--
			}
			if t.scThreshC == -63 && t.scThresh > 2 {
				t.scThresh--
				t.scThreshC = 0
			}
		}
	}

	// TAGE training.
	if p.provider >= 0 {
		e := &t.tables[p.provider].entries[p.providerIx]
		providerPred := e.ctr >= 0
		if p.weak && providerPred != p.altPred {
			// Track whether alt beats weak providers.
			if p.altPred == taken {
				t.useAltOnNA = sctrUpdate(t.useAltOnNA, true, 7)
			} else {
				t.useAltOnNA = sctrUpdate(t.useAltOnNA, false, 7)
			}
		}
		if providerPred != p.altPred {
			if providerPred == taken {
				e.u = ctrInc(e.u, 3)
			} else {
				e.u = ctrDec(e.u)
			}
		}
		e.ctr = sctrUpdate(e.ctr, taken, 3)
	} else {
		i := t.baseIdx(mix(pc))
		if taken {
			t.base[i] = ctrInc(t.base[i], 3)
		} else {
			t.base[i] = ctrDec(t.base[i])
		}
	}

	// Allocation on a TAGE misprediction (before SC/loop override).
	if p.tagePred != taken && p.provider < len(t.tables)-1 {
		start := p.provider + 1
		// Randomise the starting candidate a little, as in CBP code.
		if t.rand2()&3 == 0 && start < len(t.tables)-1 {
			start++
		}
		allocated := false
		for i := start; i < len(t.tables); i++ {
			tb := &t.tables[i]
			ix := t.idxBuf[i]
			if tb.entries[ix].u == 0 {
				tb.entries[ix] = tageEntry{tag: t.tagBuf[i], ctr: ctrInit(taken)}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := start; i < len(t.tables); i++ {
				tb := &t.tables[i]
				ix := t.idxBuf[i]
				tb.entries[ix].u = ctrDec(tb.entries[ix].u)
			}
		}
	}

	// Periodic useful-bit aging.
	t.tick++
	if t.tick&((1<<18)-1) == 0 {
		for k := range t.tables {
			for i := range t.tables[k].entries {
				t.tables[k].entries[i].u >>= 1
			}
		}
	}

	// Advance global history and every folded register. The incoming bit
	// of every fold is the outcome just pushed; the outgoing bit depends
	// only on the fold's history length, so fetch each distinct tap once
	// and fan it out (8 buffer reads instead of 42 in the default
	// config).
	var bit uint8
	if taken {
		bit = 1
	}
	t.hist.push(bit)
	for k, tap := range t.foldTaps {
		t.foldOut[k] = t.hist.at(tap)
	}
	for i := range t.tables {
		tb := &t.tables[i]
		out := t.foldOut[t.tabSlot[i]]
		tb.idxFold.updateBits(bit, out, tageIdxBits)
		tb.tagFold1.updateBits(bit, out, tageTagBits)
		tb.tagFold2.updateBits(bit, out, tageTagBits-1)
	}
	for i := range t.scFolds {
		t.scFolds[i].updateBits(bit, t.foldOut[t.scSlot[i]], scFoldBits)
	}
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

// Name implements Predictor.
func (t *TAGESCL) Name() string { return "tage-sc-l" }

// SizeBits returns the hardware storage budget in bits.
func (t *TAGESCL) SizeBits() int {
	bits := 2 * len(t.base)
	bits += tageTables * len(t.tables[0].entries) * (tageTagBits + 3 + 2) // tag, ctr, u
	bits += 6 * (scBiasRows + scTables*scRows)
	bits += t.loop.SizeBits()
	bits += histBufSize // global history register
	return bits
}

// reset sets the power-on state.
func (t *TAGESCL) reset() {
	for i := range t.base {
		t.base[i] = 1
	}
	for i := range t.tables {
		tb := &t.tables[i]
		clear(tb.entries[:])
		tb.idxFold.comp = 0
		tb.tagFold1.comp = 0
		tb.tagFold2.comp = 0
	}
	t.scBias = [scBiasRows]int8{}
	t.scTables = [scTables][scRows]int8{}
	for k := range t.scFolds {
		t.scFolds[k].comp = 0
	}
	t.hist = histBuf{}
	t.loop.reset()
	t.useAltOnNA = 0
	t.tick = 0
	t.lfsr = 0xace1
	t.scThresh = 2*int32(len(t.scTables)+1) + 1
	t.scThreshC = 0
	t.p = tagePredState{provider: -1}
	t.idxBuf, t.tagBuf, t.scIdxBuf = [tageTables]uint32{}, [tageTables]uint16{}, [scTables]int{}
}

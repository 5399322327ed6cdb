package branch

// Tournament is a ~1 KB hybrid predictor modeled after the Pentium-M
// arrangement reverse-engineered by Uzelac & Milenkovic (the paper's
// tournament baseline, §VI-B): a bimodal component, a global gshare
// component, a 2-bit chooser selecting between them, and a loop predictor
// that overrides both when confident.
type Tournament struct {
	bimodal *Bimodal
	gshare  *GShare
	loop    *LoopPredictor
	chooser []uint8 // 2-bit: >=2 prefer gshare
	mask    uint64

	// lastBimodal/lastGShare/lastLoop* carry component predictions from
	// Predict to Update (the simulator calls them strictly in pairs).
	lastBimodal bool
	lastGShare  bool
	lastLoop    bool
	lastLoopHit bool
}

// NewTournament builds the default ~1 KB configuration.
func NewTournament() *Tournament {
	return NewTournamentSized(1024, 1024, 1024, 10, 32)
}

// NewTournamentSized builds a tournament predictor with the given bimodal,
// gshare and chooser table sizes (powers of two), gshare history length,
// and loop predictor rows, on the tables of a released one of that
// geometry when there is one (see Release).
func NewTournamentSized(bimodalEntries, gshareEntries, chooserEntries int, histLen uint, loopEntries int) *Tournament {
	if chooserEntries <= 0 || chooserEntries&(chooserEntries-1) != 0 {
		panic("branch: chooser entries must be a positive power of two")
	}
	t, ok := tournamentPool.Get().(*Tournament)
	if !ok || len(t.bimodal.ctrs) != bimodalEntries || len(t.gshare.ctrs) != gshareEntries ||
		len(t.chooser) != chooserEntries || t.gshare.histLen != histLen || len(t.loop.entries) != loopEntries {
		t = &Tournament{
			bimodal: NewBimodal(bimodalEntries),
			gshare:  NewGShare(gshareEntries, histLen),
			loop:    NewLoopPredictor(loopEntries),
			chooser: make([]uint8, chooserEntries),
			mask:    uint64(chooserEntries - 1),
		}
	}
	t.reset()
	return t
}

// reset sets the power-on state: every component's, and a chooser
// weakly preferring the bimodal component.
func (t *Tournament) reset() {
	t.bimodal.reset()
	t.gshare.reset()
	t.loop.reset()
	for i := range t.chooser {
		t.chooser[i] = 1
	}
	t.lastBimodal, t.lastGShare, t.lastLoop, t.lastLoopHit = false, false, false, false
}

func (t *Tournament) chooserIdx(pc uint64) uint64 { return mix(pc) & t.mask }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	t.lastBimodal = t.bimodal.Predict(pc)
	t.lastGShare = t.gshare.Predict(pc)
	t.lastLoop, t.lastLoopHit = t.loop.Lookup(pc)
	if t.lastLoopHit {
		return t.lastLoop
	}
	if t.chooser[t.chooserIdx(pc)] >= 2 {
		return t.lastGShare
	}
	return t.lastBimodal
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken, pred bool) {
	// Chooser trains only when the components disagree.
	if t.lastBimodal != t.lastGShare {
		i := t.chooserIdx(pc)
		if t.lastGShare == taken {
			t.chooser[i] = ctrInc(t.chooser[i], 3)
		} else {
			t.chooser[i] = ctrDec(t.chooser[i])
		}
	}
	t.bimodal.Update(pc, taken, t.lastBimodal)
	t.gshare.Update(pc, taken, t.lastGShare)
	t.loop.Update(pc, taken)
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// SizeBits returns the hardware storage budget in bits.
func (t *Tournament) SizeBits() int {
	return t.bimodal.SizeBits() + t.gshare.SizeBits() + t.loop.SizeBits() + 2*len(t.chooser)
}

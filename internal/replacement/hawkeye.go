package replacement

import "repro/internal/mem"

// Hawkeye implements the Hawkeye replacement policy (Jain & Lin,
// ISCA'16). A subset of sets is sampled; for those sets OPTgen
// reconstructs Belady's decisions over an 8x history and trains a
// PC-indexed predictor. All sets then insert lines with high priority
// (RRPV 0) when the inserting PC is predicted cache-friendly and with
// RRPV 7 otherwise; evicting a cache-friendly line detrains the last PC
// that touched it.
type Hawkeye struct {
	ways       int
	sampleMask int // set & sampleMask == 0 => sampled
	pred       *Predictor

	rrpv     [][]uint8
	friendly [][]bool
	lastPC   [][]uint64

	samplers map[int]*setSampler
}

const hawkeyeMaxRRPV = 7

// setSampler tracks per-line last access times for one sampled set.
type setSampler struct {
	opt  *OPTgen
	last map[mem.Line]sampleEntry
	cap  int
}

type sampleEntry struct {
	time uint64
	pc   uint64
}

// NewHawkeye returns a Hawkeye policy for a sets x ways cache. Every
// sampleEvery-th set is sampled (64 in the original; must be a power of
// two).
func NewHawkeye(sets, ways, sampleEvery int, predictorBits uint) *Hawkeye {
	if !mem.IsPow2(sampleEvery) {
		panic("replacement: sampleEvery must be a power of two")
	}
	h := &Hawkeye{
		ways:       ways,
		sampleMask: sampleEvery - 1,
		pred:       NewPredictor(predictorBits),
		rrpv:       make([][]uint8, sets),
		friendly:   make([][]bool, sets),
		lastPC:     make([][]uint64, sets),
		samplers:   make(map[int]*setSampler),
	}
	for i := range h.rrpv {
		h.rrpv[i] = make([]uint8, ways)
		h.friendly[i] = make([]bool, ways)
		h.lastPC[i] = make([]uint64, ways)
		for w := range h.rrpv[i] {
			h.rrpv[i][w] = hawkeyeMaxRRPV
		}
	}
	return h
}

// Name implements Policy.
func (h *Hawkeye) Name() string { return "hawkeye" }

// Predictor exposes the underlying PC predictor (used by tests and by
// Triage's modified training path).
func (h *Hawkeye) Predictor() *Predictor { return h.pred }

func (h *Hawkeye) sampled(set int) bool { return set&h.sampleMask == 0 }

func (h *Hawkeye) sampler(set int) *setSampler {
	s, ok := h.samplers[set]
	if !ok {
		s = &setSampler{
			opt:  NewOPTgen(h.ways),
			last: make(map[mem.Line]sampleEntry),
			cap:  16 * h.ways,
		}
		h.samplers[set] = s
	}
	return s
}

// observe runs the OPTgen training pass for an access to a sampled set.
func (h *Hawkeye) observe(set int, a Access) {
	s := h.sampler(set)
	prev, seen := s.last[a.Line]
	optHit := s.opt.Access(prev.time, seen)
	if seen {
		if optHit {
			h.pred.TrainPositive(prev.pc)
		} else {
			h.pred.TrainNegative(prev.pc)
		}
	}
	if len(s.last) >= s.cap {
		// Evict the stalest tracked line to bound sampler state.
		var oldest mem.Line
		oldestTime := ^uint64(0)
		for l, e := range s.last {
			if e.time < oldestTime {
				oldestTime, oldest = e.time, l
			}
		}
		delete(s.last, oldest)
	}
	s.last[a.Line] = sampleEntry{time: s.opt.Now() - 1, pc: a.PC}
}

// Hit implements Policy.
func (h *Hawkeye) Hit(set, way int, a Access) {
	if h.sampled(set) {
		h.observe(set, a)
	}
	friendly := h.pred.Friendly(a.PC)
	h.friendly[set][way] = friendly
	h.lastPC[set][way] = a.PC
	if friendly {
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = hawkeyeMaxRRPV
	}
}

// Fill implements Policy.
func (h *Hawkeye) Fill(set, way int, a Access) {
	if h.sampled(set) {
		h.observe(set, a)
	}
	friendly := h.pred.Friendly(a.PC)
	h.friendly[set][way] = friendly
	h.lastPC[set][way] = a.PC
	if friendly {
		// Age the other friendly lines so newly inserted friendly lines
		// form an LRU order among themselves (original Hawkeye).
		for w := 0; w < h.ways; w++ {
			if w != way && h.rrpv[set][w] < hawkeyeMaxRRPV-1 {
				h.rrpv[set][w]++
			}
		}
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = hawkeyeMaxRRPV
	}
}

// Victim implements Policy.
func (h *Hawkeye) Victim(set int, _ Access, stamps []uint64) int {
	if w := preferInvalid(stamps); w >= 0 {
		return w
	}
	row := h.rrpv[set]
	// Prefer a cache-averse line (RRPV == 7). Only len(stamps) ways are
	// eligible: a way-partitioned cache passes a shortened slice.
	for w := 0; w < len(stamps); w++ {
		if row[w] == hawkeyeMaxRRPV {
			return w
		}
	}
	// Otherwise evict the oldest friendly line and detrain its PC.
	victim, maxRRPV := 0, -1
	for w := 0; w < len(stamps); w++ {
		if int(row[w]) > maxRRPV {
			maxRRPV, victim = int(row[w]), w
		}
	}
	if h.friendly[set][victim] {
		h.pred.TrainNegative(h.lastPC[set][victim])
	}
	return victim
}

package pdcch

import (
	"math"
	"math/rand"
	"sort"
)

// The PDCCH occupies the first CFI OFDM symbols of each subframe. Its
// resource is organized in control channel elements (CCEs) of 9 resource
// element groups (36 REs, 72 coded bits under QPSK). A DCI is transmitted
// on an aggregation of 1, 2, 4 or 8 consecutive CCEs; the UE does not know
// where, so it blind-decodes a bounded set of candidate locations (the
// common and UE-specific search spaces) trying every payload size.

// BitsPerCCE is the number of coded bits one CCE carries (36 QPSK symbols).
const BitsPerCCE = 72

// SymbolsPerCCE is the number of QPSK symbols per CCE.
const SymbolsPerCCE = BitsPerCCE / 2

// AggregationLevels lists the valid CCE aggregation levels.
var AggregationLevels = []int{1, 2, 4, 8}

// NumCCEs returns the number of CCEs in the control region of a cell with
// nPRB resource blocks and a control format indicator of cfi symbols:
// roughly 2 REGs per PRB in the first symbol and 3 in later symbols, minus
// PCFICH (4 REGs) and PHICH (12 REGs) overhead, 9 REGs per CCE.
func NumCCEs(nPRB, cfi int) int {
	if cfi < 1 {
		cfi = 1
	}
	if cfi > 3 {
		cfi = 3
	}
	regs := 2 * nPRB
	if cfi >= 2 {
		regs += 3 * nPRB
	}
	if cfi >= 3 {
		regs += 3 * nPRB
	}
	regs -= 16 // PCFICH + PHICH
	if regs < 0 {
		regs = 0
	}
	return regs / 9
}

// searchSeed advances the UE-specific search-space hash Y_k of TS 36.213
// §9.1.1: Y_k = (A * Y_{k-1}) mod D with A = 39827, D = 65537 and
// Y_{-1} = RNTI.
func searchSeed(rnti uint16, subframe int) uint32 {
	const (
		a = 39827
		d = 65537
	)
	y := uint32(rnti)
	if y == 0 {
		y = 1
	}
	for k := 0; k <= subframe%10; k++ {
		y = y * a % d
	}
	return y
}

// Candidate is one blind-decoding location: an aggregation level and a
// starting CCE index.
type Candidate struct {
	Level    int
	FirstCCE int
}

// numCandidates[level] is the number of UE-specific candidates monitored
// per aggregation level (TS 36.213 Table 9.1.1-1).
func numCandidates(level int) int {
	switch level {
	case 1, 2:
		return 6
	case 4, 8:
		return 2
	}
	return 0
}

// UESearchSpace returns the UE-specific candidates of a given RNTI in a
// subframe, for a control region of nCCE CCEs.
func UESearchSpace(rnti uint16, subframe, nCCE int) []Candidate {
	var out []Candidate
	y := searchSeed(rnti, subframe)
	for _, level := range AggregationLevels {
		slots := nCCE / level
		if slots == 0 {
			continue
		}
		m := numCandidates(level)
		if m > slots {
			m = slots
		}
		for i := 0; i < m; i++ {
			first := level * int((y+uint32(i))%uint32(slots))
			out = append(out, Candidate{Level: level, FirstCCE: first})
		}
	}
	return out
}

// AllCandidateStarts enumerates every possible candidate location in a
// control region (for a monitor that scans exhaustively like OWL, which
// cannot precompute other users' search spaces without their RNTIs).
func AllCandidateStarts(nCCE int) []Candidate {
	var out []Candidate
	for _, level := range AggregationLevels {
		for first := 0; first+level <= nCCE; first += level {
			out = append(out, Candidate{Level: level, FirstCCE: first})
		}
	}
	return out
}

// Region is the encoded control region of one subframe: the QPSK symbols
// of every CCE.
type Region struct {
	Bandwidth Bandwidth
	Subframe  int
	NCCE      int
	Symbols   []Symbol // NCCE * SymbolsPerCCE
	occupied  []bool   // per CCE, encoder-side bookkeeping
}

// NewRegion returns an empty control region (all-zero symbols) for the
// given bandwidth and CFI.
func NewRegion(bw Bandwidth, cfi, subframe int) *Region {
	n := NumCCEs(bw.NPRB, cfi)
	return &Region{
		Bandwidth: bw,
		Subframe:  subframe,
		NCCE:      n,
		Symbols:   make([]Symbol, n*SymbolsPerCCE),
		occupied:  make([]bool, n),
	}
}

// Place encodes one DCI onto the region at an unoccupied candidate of the
// owner's UE-specific search space with the requested aggregation level,
// falling back to higher levels if needed. It reports whether a location
// was found. Levels below 2 are raised to 2: a third-party monitor cannot
// validate aggregation-level-1 candidates (their code redundancy is too
// small to separate codewords from noise without knowing the RNTI), so the
// synthesized base station, like conservatively configured eNBs, starts at
// level 2.
func (r *Region) Place(d *DCI, level int) bool {
	if level < 2 {
		level = 2
	}
	payload := d.Pack(r.Bandwidth)
	block := attachCRC(payload, d.RNTI)
	coded := encodeConv(block)
	cands := UESearchSpace(d.RNTI, r.Subframe, r.NCCE)
	// Try the requested level first, then anything larger.
	sort.SliceStable(cands, func(i, j int) bool {
		pi := cands[i].Level
		pj := cands[j].Level
		di := pi - level
		dj := pj - level
		if di < 0 {
			di += 16 // below-requested levels go last
		}
		if dj < 0 {
			dj += 16
		}
		return di < dj
	})
	for _, c := range cands {
		if c.FirstCCE+c.Level > r.NCCE || !r.free(c) {
			continue
		}
		tx := rateMatch(coded, c.Level*BitsPerCCE)
		syms := modulateQPSK(tx)
		copy(r.Symbols[c.FirstCCE*SymbolsPerCCE:], syms)
		for i := 0; i < c.Level; i++ {
			r.occupied[c.FirstCCE+i] = true
		}
		return true
	}
	return false
}

func (r *Region) free(c Candidate) bool {
	for i := 0; i < c.Level; i++ {
		if r.occupied[c.FirstCCE+i] {
			return false
		}
	}
	return true
}

// AddNoise corrupts the whole region with AWGN of the given per-component
// standard deviation.
func (r *Region) AddNoise(sigma float64, rng *rand.Rand) {
	addNoise(r.Symbols, sigma, rng)
}

// Decoded is one blind-decoding result.
type Decoded struct {
	DCI       DCI
	Candidate Candidate
	// ReencodeErrors is the Hamming distance between the received hard
	// decisions and the re-encoded codeword, the decoder's confidence
	// measure (0 on a clean channel).
	ReencodeErrors int
}

// Decoder blind-decodes control regions the way the paper's monitor does:
// scan every candidate location and payload size, Viterbi-decode, recover
// the RNTI from the scrambled CRC, and validate by re-encoding. Because the
// monitor does not know other users' RNTIs, the 16-bit CRC alone cannot
// reject false candidates (any pattern implies *some* RNTI); validation
// instead requires the re-encoded codeword to match the received hard
// decisions much more closely than the best noise-fitting codeword could.
type Decoder struct {
	// Sigma is the assumed noise level for LLR scaling (0 = noiseless).
	Sigma float64
	// MinRedundancyBits skips (location, size) hypotheses whose coded
	// length exceeds the block length by less than this, since such
	// near-uncoded candidates validate on noise.
	MinRedundancyBits int
	// MinEnergy skips candidates whose mean symbol energy is below this
	// threshold (unoccupied CCEs in a synthesized region are silent).
	MinEnergy float64
}

// NewDecoder returns a decoder with validation thresholds suited to the
// given channel noise sigma.
func NewDecoder(sigma float64) *Decoder {
	return &Decoder{Sigma: sigma, MinRedundancyBits: 64, MinEnergy: 0.1}
}

// acceptThreshold returns the maximum acceptable re-encode mismatch
// fraction for a hypothesis with k block bits in n coded bits. The best
// codeword of a ~2^k codebook fitted to n random bits mismatches about
// 0.5 - sqrt(k ln2 / 2n) of them; accepting at half that keeps noise out
// while true transmissions (mismatch = channel BER, a few percent) pass.
// On a noiseless channel an exact match is required.
func (dec *Decoder) acceptThreshold(n, k int) float64 {
	if dec.Sigma == 0 {
		return 0
	}
	fp := 0.5 - math.Sqrt(float64(k)*math.Ln2/(2*float64(n)))
	thr := 0.5 * fp
	if thr > 0.15 {
		thr = 0.15
	}
	if thr < 0 {
		thr = 0
	}
	return thr
}

// Decode scans the region and returns every validated DCI, deduplicated so
// that each CCE contributes to at most one message (preferring candidates
// with fewer re-encode errors).
func (dec *Decoder) Decode(r *Region) []Decoded {
	var results []Decoded
	for _, c := range AllCandidateStarts(r.NCCE) {
		syms := r.Symbols[c.FirstCCE*SymbolsPerCCE : (c.FirstCCE+c.Level)*SymbolsPerCCE]
		if symbolEnergy(syms) < dec.MinEnergy {
			continue
		}
		llr := demodulateQPSK(syms, dec.Sigma)
		for _, size := range r.Bandwidth.PayloadSizes() {
			if d, ok := dec.tryCandidate(llr, size, c, r.Bandwidth); ok {
				results = append(results, d)
			}
		}
	}
	return dedupe(results)
}

// tryCandidate attempts one (location, payload size) hypothesis.
func (dec *Decoder) tryCandidate(llr []float64, payloadBits int, c Candidate, bw Bandwidth) (Decoded, bool) {
	blockBits := payloadBits + 16
	if c.Level*BitsPerCCE-blockBits < dec.MinRedundancyBits {
		return Decoded{}, false
	}
	coded := deRateMatch(llr, blockBits)
	block := viterbiTailBiting(coded, blockBits)
	if block == nil {
		return Decoded{}, false
	}
	payload, rnti, ok := recoverRNTI(block)
	if !ok || rnti == 0 {
		return Decoded{}, false
	}
	d, ok := UnpackDCI(payload, bw)
	if !ok {
		return Decoded{}, false
	}
	d.RNTI = rnti
	// Validate by re-encoding and comparing with the received hard
	// decisions; this is what separates true messages from CRC-coincident
	// noise, since the blind decoder cannot check against a known RNTI.
	reenc := rateMatch(encodeConv(block), c.Level*BitsPerCCE)
	hard := make(Bits, len(llr))
	for i, v := range llr {
		if v < 0 {
			hard[i] = 1
		}
	}
	errs := hammingDistance(reenc, hard)
	if float64(errs) > dec.acceptThreshold(len(hard), blockBits)*float64(len(hard)) {
		return Decoded{}, false
	}
	return Decoded{DCI: d, Candidate: c, ReencodeErrors: errs}, true
}

// dedupe keeps at most one decoded message per CCE span, preferring lower
// re-encode error and, at a tie, larger aggregation (a legitimate AL-2
// message also decodes at each constituent AL-1 position on clean
// channels; the full-span candidate is the true one).
func dedupe(in []Decoded) []Decoded {
	sort.SliceStable(in, func(i, j int) bool {
		fi := float64(in[i].ReencodeErrors) / float64(in[i].Candidate.Level*BitsPerCCE)
		fj := float64(in[j].ReencodeErrors) / float64(in[j].Candidate.Level*BitsPerCCE)
		if fi != fj {
			return fi < fj
		}
		return in[i].Candidate.Level > in[j].Candidate.Level
	})
	used := map[int]bool{}
	var out []Decoded
	for _, d := range in {
		clash := false
		for i := 0; i < d.Candidate.Level; i++ {
			if used[d.Candidate.FirstCCE+i] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		for i := 0; i < d.Candidate.Level; i++ {
			used[d.Candidate.FirstCCE+i] = true
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Candidate.FirstCCE < out[j].Candidate.FirstCCE
	})
	return out
}

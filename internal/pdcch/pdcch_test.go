package pdcch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var bw100 = Bandwidth{NPRB: 100}
var bw50 = Bandwidth{NPRB: 50}
var bw25 = Bandwidth{NPRB: 25}

// --- CRC ---

func TestCRC16KnownProperties(t *testing.T) {
	// CRC of the empty message is 0; appending a true (unscrambled) CRC
	// yields a block whose CRC is 0.
	if crc16(nil) != 0 {
		t.Fatal("crc16(empty) != 0")
	}
	payload := Bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	block := attachCRC(payload, 0)
	if crc16(block) != 0 {
		t.Fatalf("crc16(payload||crc) = %#x, want 0", crc16(block))
	}
}

func TestCRCRNTIRecovery(t *testing.T) {
	f := func(seed int64, rnti uint16) bool {
		if rnti == 0 {
			rnti = 1
		}
		rng := rand.New(rand.NewSource(seed))
		payload := make(Bits, 40)
		for i := range payload {
			payload[i] = uint8(rng.Intn(2))
		}
		block := attachCRC(payload, rnti)
		got, rec, ok := recoverRNTI(block)
		return ok && rec == rnti && equalBits(got, payload) && checkCRC(block, rnti)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	payload := make(Bits, 40)
	block := attachCRC(payload, 0x1234)
	block[3] ^= 1
	if checkCRC(block, 0x1234) {
		t.Fatal("single-bit corruption not detected")
	}
}

func TestRecoverRNTITooShort(t *testing.T) {
	if _, _, ok := recoverRNTI(make(Bits, 16)); ok {
		t.Fatal("16-bit block must be rejected (no payload)")
	}
}

// --- Convolutional code ---

func TestConvEncodeRate(t *testing.T) {
	in := make(Bits, 43)
	out := encodeConv(in)
	if len(out) != 3*len(in) {
		t.Fatalf("coded length = %d, want %d", len(out), 3*len(in))
	}
}

func TestConvTailBitingProperty(t *testing.T) {
	// A tail-biting codeword of the all-zero message is all zero, and a
	// cyclic shift of the input produces a cyclic shift of the output.
	in := make(Bits, 30)
	out := encodeConv(in)
	for _, b := range out {
		if b != 0 {
			t.Fatal("all-zero input must give all-zero codeword")
		}
	}

	rng := rand.New(rand.NewSource(5))
	msg := make(Bits, 30)
	for i := range msg {
		msg[i] = uint8(rng.Intn(2))
	}
	shifted := append(Bits{}, msg[3:]...)
	shifted = append(shifted, msg[:3]...)
	a := encodeConv(msg)
	b := encodeConv(shifted)
	// a shifted by 3 input positions = 9 output bits.
	rot := append(Bits{}, a[9:]...)
	rot = append(rot, a[:9]...)
	if !equalBits(rot, b) {
		t.Fatal("tail-biting cyclic-shift property violated")
	}
}

func TestViterbiNoiselessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{20, 43, 54, 66} {
		for trial := 0; trial < 20; trial++ {
			msg := make(Bits, n)
			for i := range msg {
				msg[i] = uint8(rng.Intn(2))
			}
			got := viterbiTailBiting(hardLLR(encodeConv(msg)), n)
			if !equalBits(got, msg) {
				t.Fatalf("n=%d trial=%d: decode mismatch", n, trial)
			}
		}
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 43
	ok := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		msg := make(Bits, n)
		for i := range msg {
			msg[i] = uint8(rng.Intn(2))
		}
		coded := encodeConv(msg)
		llr := hardLLR(coded)
		// Flip 6 random coded bits (~4.7% BER) - well within the power
		// of a rate-1/3 K=7 code.
		for k := 0; k < 6; k++ {
			llr[rng.Intn(len(llr))] *= -1
		}
		if equalBits(viterbiTailBiting(llr, n), msg) {
			ok++
		}
	}
	if ok < trials*9/10 {
		t.Fatalf("corrected only %d/%d blocks with 6 bit flips", ok, trials)
	}
}

func TestViterbiBadInput(t *testing.T) {
	if viterbiTailBiting(make([]float64, 10), 4) != nil {
		t.Fatal("length mismatch must return nil")
	}
	if viterbiTailBiting(nil, 0) != nil {
		t.Fatal("empty input must return nil")
	}
}

// --- Rate matching ---

func TestInterleaveIndicesPermutation(t *testing.T) {
	for _, d := range []int{10, 32, 59, 64, 177} {
		idx := interleaveIndices(d)
		seen := make([]bool, d)
		nulls := 0
		for _, v := range idx {
			if v == -1 {
				nulls++
				continue
			}
			if v < 0 || v >= d || seen[v] {
				t.Fatalf("d=%d: invalid or repeated index %d", d, v)
			}
			seen[v] = true
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("d=%d: index %d never produced", d, i)
			}
		}
		if len(idx)-nulls != d {
			t.Fatalf("d=%d: wrong null count", d)
		}
	}
}

func TestRateMatchRoundTripExact(t *testing.T) {
	// With e = 3*d (no puncturing and no repetition beyond nulls) the
	// de-rate-matcher must recover every coded bit.
	rng := rand.New(rand.NewSource(13))
	d := 59
	coded := make(Bits, 3*d)
	for i := range coded {
		coded[i] = uint8(rng.Intn(2))
	}
	tx := rateMatch(coded, 3*d)
	llr := deRateMatch(hardLLR(tx), d)
	for i, want := range coded {
		got := uint8(0)
		if llr[i] < 0 {
			got = 1
		}
		if llr[i] == 0 {
			t.Fatalf("position %d erased with e=3d", i)
		}
		if got != want {
			t.Fatalf("position %d: got %d want %d", i, got, want)
		}
	}
}

func TestRateMatchRepetitionAddsEnergy(t *testing.T) {
	d := 20
	coded := make(Bits, 3*d)
	tx := rateMatch(coded, 9*d) // 3x repetition
	llr := deRateMatch(hardLLR(tx), d)
	for i, v := range llr {
		if v != 3 {
			t.Fatalf("position %d accumulated %v, want 3 (3x repetition)", i, v)
		}
	}
}

func TestRateMatchPuncturedStillDecodable(t *testing.T) {
	// A DCI block rate-matched into a single CCE (72 bits) from a 59-bit
	// block (177 coded bits punctured to 72) must still Viterbi-decode.
	rng := rand.New(rand.NewSource(17))
	n := 43 + 16
	for trial := 0; trial < 20; trial++ {
		msg := make(Bits, n)
		for i := range msg {
			msg[i] = uint8(rng.Intn(2))
		}
		tx := rateMatch(encodeConv(msg), BitsPerCCE)
		if len(tx) != BitsPerCCE {
			t.Fatalf("tx length %d", len(tx))
		}
		got := viterbiTailBiting(deRateMatch(hardLLR(tx), n), n)
		if !equalBits(got, msg) {
			t.Fatalf("trial %d: punctured decode failed", trial)
		}
	}
}

// --- Modulation ---

func TestQPSKRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bits := make(Bits, 144)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	llr := demodulateQPSK(modulateQPSK(bits), 0)
	for i, b := range bits {
		got := uint8(0)
		if llr[i] < 0 {
			got = 1
		}
		if got != b {
			t.Fatalf("bit %d: got %d want %d", i, got, b)
		}
	}
}

func TestQPSKOddLengthPadded(t *testing.T) {
	syms := modulateQPSK(make(Bits, 7))
	if len(syms) != 4 {
		t.Fatalf("symbols = %d, want 4", len(syms))
	}
}

func TestSymbolEnergy(t *testing.T) {
	syms := modulateQPSK(make(Bits, 72))
	e := symbolEnergy(syms)
	if e < 0.99 || e > 1.01 {
		t.Fatalf("unit-power QPSK energy = %v", e)
	}
	if symbolEnergy(nil) != 0 {
		t.Fatal("empty energy must be 0")
	}
}

// --- DCI pack/unpack ---

func TestRIVRoundTrip(t *testing.T) {
	for _, n := range []int{25, 50, 100} {
		for start := 0; start < n; start += 7 {
			for length := 1; start+length <= n; length += 5 {
				riv := EncodeRIV(n, start, length)
				s, l, ok := DecodeRIV(n, riv)
				if !ok || s != start || l != length {
					t.Fatalf("RIV round trip n=%d start=%d len=%d: got %d %d %v",
						n, start, length, s, l, ok)
				}
			}
		}
	}
}

func TestRBGSizes(t *testing.T) {
	cases := []struct{ nprb, p, rbgs int }{
		{25, 2, 13}, {50, 3, 17}, {75, 4, 19}, {100, 4, 25}, {6, 1, 6},
	}
	for _, c := range cases {
		bw := Bandwidth{NPRB: c.nprb}
		if bw.RBGSize() != c.p {
			t.Fatalf("RBGSize(%d) = %d, want %d", c.nprb, bw.RBGSize(), c.p)
		}
		if bw.NumRBGs() != c.rbgs {
			t.Fatalf("NumRBGs(%d) = %d, want %d", c.nprb, bw.NumRBGs(), c.rbgs)
		}
	}
}

func TestPRBsInLastRBG(t *testing.T) {
	// 50 PRB, P=3: last of 17 RBGs has 50-16*3 = 2 PRBs.
	if got := bw50.PRBsInRBG(16); got != 2 {
		t.Fatalf("last RBG of 50-PRB cell = %d PRBs, want 2", got)
	}
	if got := bw100.PRBsInRBG(24); got != 4 {
		t.Fatalf("last RBG of 100-PRB cell = %d PRBs, want 4", got)
	}
}

func TestAllocatedPRBs(t *testing.T) {
	d := DCI{Format: Format1, RBGBitmap: ContiguousRBGBitmap(0, 25)}
	if got := d.AllocatedPRBs(bw100); got != 100 {
		t.Fatalf("full bitmap = %d PRBs, want 100", got)
	}
	d = DCI{Format: Format1A, RIVStart: 10, RIVLen: 7}
	if got := d.AllocatedPRBs(bw100); got != 7 {
		t.Fatalf("RIV alloc = %d PRBs, want 7", got)
	}
	d = DCI{Format: Format0, RIVLen: 7}
	if got := d.AllocatedPRBs(bw100); got != 0 {
		t.Fatalf("uplink grant consumes %d DL PRBs, want 0", got)
	}
}

func TestDCIPackUnpackAllFormats(t *testing.T) {
	cases := []DCI{
		{Format: Format0, RIVStart: 3, RIVLen: 10, MCS: 11, HARQ: 2, NDI: true, RV: 1, TPC: 3},
		{Format: Format1A, RIVStart: 0, RIVLen: 4, MCS: 5, HARQ: 7, NDI: false, RV: 2, TPC: 1},
		{Format: Format1, RBGBitmap: 0x155_5555, MCS: 20, HARQ: 1, NDI: true, RV: 0, TPC: 2},
		{Format: Format2, RBGBitmap: 0xAAAA, MCS: 25, MCS2: 24, NDI: true, NDI2: false,
			RV: 1, RV2: 2, Precode: 5, HARQ: 4, TPC: 0},
	}
	for _, bw := range []Bandwidth{bw25, bw50, bw100} {
		for _, want := range cases {
			mask := uint32(1)<<uint(bw.NumRBGs()) - 1
			want.RBGBitmap &= mask
			payload := want.Pack(bw)
			if len(payload) != bw.PayloadBits(want.Format) {
				t.Fatalf("%v at %d PRB: payload %d bits, want %d",
					want.Format, bw.NPRB, len(payload), bw.PayloadBits(want.Format))
			}
			got, ok := UnpackDCI(payload, bw)
			if !ok {
				t.Fatalf("%v at %d PRB: unpack failed", want.Format, bw.NPRB)
			}
			got.RNTI = want.RNTI
			if got != want {
				t.Fatalf("%v at %d PRB:\n got %+v\nwant %+v", want.Format, bw.NPRB, got, want)
			}
		}
	}
}

func TestUnpackDCIUnknownSize(t *testing.T) {
	if _, ok := UnpackDCI(make(Bits, 99), bw100); ok {
		t.Fatal("unknown payload size must fail")
	}
}

// TestPayloadSizesDistinct: at every bandwidth Bandwidth supports, the
// three payload sizes the blind decoder tries are distinct, so a decoded
// size names its format.
func TestPayloadSizesDistinct(t *testing.T) {
	for _, nprb := range []int{25, 50, 75, 100} {
		sizes := Bandwidth{NPRB: nprb}.PayloadSizes()
		if len(sizes) != 3 {
			t.Fatalf("expected 3 distinct sizes at %d PRB, got %v", nprb, sizes)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Fatalf("%d PRB: sizes not increasing: %v", nprb, sizes)
			}
		}
	}
}

func TestStreams(t *testing.T) {
	if (&DCI{Format: Format2, Precode: 1}).Streams() != 2 {
		t.Fatal("Format2 with precoding must be 2 streams")
	}
	if (&DCI{Format: Format1}).Streams() != 1 {
		t.Fatal("Format1 must be 1 stream")
	}
	if (&DCI{Format: Format2, Precode: 0}).Streams() != 1 {
		t.Fatal("Format2 without precoding must be 1 stream")
	}
}

// --- Search spaces and region ---

func TestNumCCEs(t *testing.T) {
	if got := NumCCEs(100, 3); got != (800-16)/9 {
		t.Fatalf("NumCCEs(100,3) = %d", got)
	}
	if got := NumCCEs(50, 1); got != (100-16)/9 {
		t.Fatalf("NumCCEs(50,1) = %d", got)
	}
	if NumCCEs(100, 0) != NumCCEs(100, 1) || NumCCEs(100, 5) != NumCCEs(100, 3) {
		t.Fatal("CFI clamping broken")
	}
}

func TestUESearchSpaceWithinRegion(t *testing.T) {
	nCCE := NumCCEs(100, 2)
	for _, rnti := range []uint16{1, 61, 1000, 65535} {
		for sf := 0; sf < 10; sf++ {
			for _, c := range UESearchSpace(rnti, sf, nCCE) {
				if c.FirstCCE < 0 || c.FirstCCE+c.Level > nCCE {
					t.Fatalf("candidate out of region: %+v (nCCE=%d)", c, nCCE)
				}
				if c.FirstCCE%c.Level != 0 {
					t.Fatalf("candidate not level-aligned: %+v", c)
				}
			}
		}
	}
}

func TestSearchSpaceVariesWithSubframe(t *testing.T) {
	nCCE := NumCCEs(100, 2)
	a := UESearchSpace(777, 0, nCCE)
	b := UESearchSpace(777, 5, nCCE)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("search space must hop across subframes")
	}
}

func TestAllCandidateStartsAligned(t *testing.T) {
	for _, c := range AllCandidateStarts(20) {
		if c.FirstCCE%c.Level != 0 || c.FirstCCE+c.Level > 20 {
			t.Fatalf("bad candidate %+v", c)
		}
	}
}

// --- End-to-end encode/blind-decode ---

func placeAndDecode(t *testing.T, bw Bandwidth, sigma float64, rng *rand.Rand, dcis []DCI, levels []int) []Decoded {
	t.Helper()
	r := NewRegion(bw, 2, 4)
	for i := range dcis {
		if !r.Place(&dcis[i], levels[i]) {
			t.Fatalf("failed to place DCI %d", i)
		}
	}
	r.AddNoise(sigma, rng)
	return NewDecoder(sigma).Decode(r)
}

func TestBlindDecodeSingleClean(t *testing.T) {
	want := DCI{RNTI: 4321, Format: Format1, RBGBitmap: ContiguousRBGBitmap(0, 10),
		MCS: 17, HARQ: 3, NDI: true, RV: 0, TPC: 1}
	got := placeAndDecode(t, bw100, 0, nil, []DCI{want}, []int{2})
	if len(got) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(got))
	}
	if got[0].DCI != want {
		t.Fatalf("decoded %+v, want %+v", got[0].DCI, want)
	}
	if got[0].ReencodeErrors != 0 {
		t.Fatalf("clean decode with %d re-encode errors", got[0].ReencodeErrors)
	}
}

func TestBlindDecodeRecoversUnknownRNTIs(t *testing.T) {
	// The monitor does not know these RNTIs; it must still recover all
	// three messages and their RNTIs (the OWL capability PBE-CC needs).
	dcis := []DCI{
		{RNTI: 100, Format: Format1, RBGBitmap: ContiguousRBGBitmap(0, 8), MCS: 10, NDI: true},
		{RNTI: 2000, Format: Format2, RBGBitmap: ContiguousRBGBitmap(8, 9), MCS: 20, MCS2: 19, Precode: 1},
		{RNTI: 30000, Format: Format1A, RIVStart: 90, RIVLen: 4, MCS: 4},
	}
	got := placeAndDecode(t, bw100, 0, nil, dcis, []int{2, 4, 1})
	if len(got) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(got))
	}
	found := map[uint16]DCI{}
	for _, d := range got {
		found[d.DCI.RNTI] = d.DCI
	}
	for _, want := range dcis {
		if got, ok := found[want.RNTI]; !ok || got != want {
			t.Fatalf("RNTI %d: got %+v want %+v (ok=%v)", want.RNTI, got, want, ok)
		}
	}
}

func TestBlindDecodeUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	okCount := 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		want := DCI{RNTI: 5555, Format: Format1, RBGBitmap: ContiguousRBGBitmap(0, 12),
			MCS: 15, NDI: trial%2 == 0}
		got := placeAndDecode(t, bw100, 0.35, rng, []DCI{want}, []int{8})
		if len(got) == 1 && got[0].DCI == want {
			okCount++
		}
	}
	if okCount < trials*8/10 {
		t.Fatalf("decoded only %d/%d under sigma=0.35 at AL8", okCount, trials)
	}
}

func TestBlindDecodeEmptyRegionSilent(t *testing.T) {
	r := NewRegion(bw100, 2, 0)
	got := NewDecoder(0).Decode(r)
	if len(got) != 0 {
		t.Fatalf("decoded %d messages from an empty region", len(got))
	}
}

func TestBlindDecodeNoiseOnlyRejectsFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := NewRegion(bw100, 2, 0)
	r.AddNoise(1.0, rng) // pure noise, full energy
	got := NewDecoder(0.5).Decode(r)
	if len(got) != 0 {
		t.Fatalf("decoded %d messages from pure noise (false positives)", len(got))
	}
}

func TestRegionPlaceExhaustion(t *testing.T) {
	// A tiny region cannot host unlimited level-8 messages.
	r := NewRegion(bw25, 1, 0) // (50-16)/9 = 3 CCEs
	placed := 0
	for rnti := uint16(1); rnti < 20; rnti++ {
		d := DCI{RNTI: rnti, Format: Format1A, RIVLen: 1}
		if r.Place(&d, 1) {
			placed++
		}
	}
	if placed == 0 || placed > 3 {
		t.Fatalf("placed %d messages in a 3-CCE region", placed)
	}
}

// --- Benchmarks ---

func BenchmarkViterbiDecode59(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msg := make(Bits, 59)
	for i := range msg {
		msg[i] = uint8(rng.Intn(2))
	}
	llr := hardLLR(encodeConv(msg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viterbiTailBiting(llr, 59)
	}
}

func BenchmarkBlindDecodeSubframe(b *testing.B) {
	r := NewRegion(bw100, 2, 0)
	for i, rnti := range []uint16{100, 200, 300, 400} {
		d := DCI{RNTI: rnti, Format: Format1, RBGBitmap: ContiguousRBGBitmap(i*6, 6), MCS: 12}
		r.Place(&d, 2)
	}
	dec := NewDecoder(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(r)
	}
}

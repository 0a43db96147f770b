package pdcch

import "testing"

// checkDCI fails t unless d, accepted at bw, re-packs to a payload that
// unpacks to d again (the RNTI rides in the CRC, not the payload) and
// grants at most the cell's PRBs.
func checkDCI(t *testing.T, d DCI, bw Bandwidth) {
	t.Helper()
	want := d
	want.RNTI = 0
	if got, ok := UnpackDCI(want.Pack(bw), bw); !ok || got != want {
		t.Fatalf("%d PRBs: %+v re-packs to a payload that unpacks to %+v (ok=%v)", bw.NPRB, want, got, ok)
	}
	if n := d.AllocatedPRBs(bw); n > bw.NPRB {
		t.Fatalf("%d PRBs: %+v allocates %d PRBs", bw.NPRB, d, n)
	}
}

// FuzzUnpackDCI holds the DCI codec to a round trip: a payload UnpackDCI
// accepts, at any payload size of the 25-, 50-, 75- and 100-PRB carriers,
// is a DCI that passes checkDCI. Input byte i is payload bit i (b&1); bits
// past the input are zero. The seed corpus is testdata/fuzz/FuzzUnpackDCI.
func FuzzUnpackDCI(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nprb := range []int{25, 50, 75, 100} {
			bw := Bandwidth{NPRB: nprb}
			for _, size := range bw.PayloadSizes() {
				payload := make(Bits, size)
				for i := range min(size, len(data)) {
					payload[i] = data[i] & 1
				}
				if d, ok := UnpackDCI(payload, bw); ok {
					checkDCI(t, d, bw)
				}
			}
		}
	})
}

// FuzzDecodeRegion blind-decodes arbitrary 25-PRB, CFI-3 control regions.
// The input's bytes are the region's symbol components in order (I, then
// Q): byte b is qpskAmp*(b-127.5)/127.5, so 0x00 and 0xff are the two
// QPSK points, and components past the input are silent. Decode must not
// panic at σ 0 or σ 0.3, and every DCI it returns must pass checkDCI. The
// seed corpus is testdata/fuzz/FuzzDecodeRegion.
func FuzzDecodeRegion(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegion(bw25, 3, 0)
		comp := func(k int) float64 {
			if k >= len(data) {
				return 0
			}
			return qpskAmp * (float64(data[k]) - 127.5) / 127.5
		}
		for i := range r.Symbols {
			r.Symbols[i] = Symbol{I: comp(2 * i), Q: comp(2*i + 1)}
		}
		for _, sigma := range []float64{0, 0.3} {
			for _, d := range NewDecoder(sigma).Decode(r) {
				checkDCI(t, d.DCI, r.Bandwidth)
			}
		}
	})
}

package bitutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
)

// codecTestPatterns are the value shapes the packing suite exercises:
// each generator returns a raw (not necessarily monotone) sequence.
// Monotone variants are derived by prefix-summing the values.
var codecTestPatterns = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []uint64
}{
	{"zeros", func(n int, _ *rand.Rand) []uint64 { return make([]uint64, n) }},
	{"ones", func(n int, _ *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}},
	{"small_random", func(n int, rng *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(16))
		}
		return out
	}},
	{"wide_random", func(n int, rng *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = rng.Uint64() >> (1 + rng.Intn(40))
		}
		return out
	}},
	{"bursty", func(n int, rng *rand.Rand) []uint64 {
		// Long runs of tiny deltas punctuated by huge spikes: the
		// shape per-block delta widths exist to isolate.
		out := make([]uint64, n)
		for i := range out {
			if rng.Intn(32) == 0 {
				out[i] = uint64(rng.Intn(1 << 40))
			} else {
				out[i] = uint64(rng.Intn(3))
			}
		}
		return out
	}},
	{"near_s8b_limit", func(n int, rng *rand.Rand) []uint64 {
		// Values just under 2^60: wide fixed-width entries.
		out := make([]uint64, n)
		for i := range out {
			out[i] = (uint64(1)<<60 - 1) - uint64(rng.Intn(4))
		}
		return out
	}},
	{"alternating_widths", func(n int, _ *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			if i%2 == 0 {
				out[i] = 1
			} else {
				out[i] = 1 << 30
			}
		}
		return out
	}},
}

// codecTestSizes exercises empty, single, block-fringe and multi-block
// lengths (monotoneBlock = 16).
var codecTestSizes = []int{0, 1, 15, 16, 17, 31, 33, 100, 1000}

// prefixSum lifts raw values to a monotone sequence, capping each delta
// so the running sum cannot overflow even for the widest patterns.
func prefixSum(vals []uint64) []uint64 {
	out := make([]uint64, len(vals))
	cap := uint64(1)<<59 - 1
	if n := uint64(len(vals)); n > 0 {
		cap /= n
	}
	var sum uint64
	for i, v := range vals {
		if v > cap {
			v = cap
		}
		sum += v
		out[i] = sum
	}
	return out
}

// checkMonotone verifies every MonotoneVector accessor against the
// reference values.
func checkMonotone(t *testing.T, mv *MonotoneVector, vals []uint64) {
	t.Helper()
	if mv.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", mv.Len(), len(vals))
	}
	if got := mv.DecodeAll(nil); len(vals) > 0 && !reflect.DeepEqual(got, vals) {
		t.Fatalf("DecodeAll mismatch:\n got %v\nwant %v", got, vals)
	}
	for i, want := range vals {
		if got := mv.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	var blk [MonotoneBlockSize]uint64
	for b := 0; b*MonotoneBlockSize < len(vals); b++ {
		cnt := mv.DecodeBlockInto(b, &blk)
		for j := 0; j < cnt; j++ {
			if blk[j] != vals[b*MonotoneBlockSize+j] {
				t.Fatalf("DecodeBlockInto(%d)[%d] = %d, want %d", b, j, blk[j], vals[b*MonotoneBlockSize+j])
			}
		}
	}
	cur := mv.Cursor()
	for i, want := range vals {
		if got := cur.Next(); got != want {
			t.Fatalf("cursor[%d] = %d, want %d", i, got, want)
		}
	}
	if len(vals) == 0 {
		return
	}
	for _, target := range []uint64{0, vals[0], vals[len(vals)/2], vals[len(vals)-1], vals[len(vals)-1] + 1} {
		want := len(vals)
		for i, v := range vals {
			if v >= target {
				want = i
				break
			}
		}
		if got := mv.SearchGE(0, mv.Len(), target); got != want {
			t.Fatalf("SearchGE(%d) = %d, want %d", target, got, want)
		}
	}
}

// packRaw packs vals at the width of their largest element.
func packRaw(vals []uint64) *PackedVector {
	pv := NewPackedVector(len(vals), WidthFor(maxVal(vals)))
	for i, v := range vals {
		pv.Set(i, v)
	}
	return pv
}

// TestCodecRoundTrip runs the packing differential suite: every pattern
// × size, monotone through MonotoneVector and raw through PackedVector,
// checking every accessor before and after a serial round trip.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pat := range codecTestPatterns {
		for _, n := range codecTestSizes {
			raw := pat.gen(n, rng)
			mono := prefixSum(raw)

			mv := NewMonotoneVector(mono)
			checkMonotone(t, mv, mono)
			buf := mv.AppendBinary(nil)
			back, read, err := DecodeMonotoneVector(buf)
			if err != nil || read != len(buf) {
				t.Fatalf("%s n=%d: DecodeMonotoneVector err=%v consumed %d/%d", pat.name, n, err, read, len(buf))
			}
			checkMonotone(t, back, mono)

			pv := packRaw(raw)
			buf = pv.AppendBinary(nil)
			pback, read, err := DecodePackedVector(buf)
			if err != nil || read != len(buf) {
				t.Fatalf("%s n=%d: DecodePackedVector err=%v consumed %d/%d", pat.name, n, err, read, len(buf))
			}
			for i, want := range raw {
				if pv.Get(i) != want || pback.Get(i) != want {
					t.Fatalf("%s n=%d: Get(%d) = %d/%d, want %d", pat.name, n, i, pv.Get(i), pback.Get(i), want)
				}
			}
		}
	}
}

func maxVal(vals []uint64) uint64 {
	var m uint64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// legacyPackingDigest is the SHA-256 of every pattern × size encoded by
// the packing as it shipped before this suite (monotone and raw,
// serialized back to back). Snapshots persist these bytes, so a change
// to the layout must change the serial magic, not this constant.
const legacyPackingDigest = "ee4b9fcd2f6870c91a8fcbf0c8ff66c48530c6962065916cf3ef482a8f830594"

// TestLegacyCodecByteIdentical locks the serialized packing byte for
// byte: MonotoneVector and PackedVector encodings of every pattern and
// size hash to the digest of the historical format.
func TestLegacyCodecByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := sha256.New()
	for _, pat := range codecTestPatterns {
		for _, n := range codecTestSizes {
			raw := pat.gen(n, rng)
			h.Write(NewMonotoneVector(prefixSum(raw)).AppendBinary(nil))
			h.Write(packRaw(raw).AppendBinary(nil))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != legacyPackingDigest {
		t.Fatalf("packing bytes changed: digest %s, want %s", got, legacyPackingDigest)
	}
}

// checkDecodedInBounds touches every element of a vector that decoded
// without error; an out-of-range read panics and fails the caller.
func checkDecodedInBounds(mv *MonotoneVector, pv *PackedVector) {
	if pv != nil {
		for i := 0; i < pv.Len(); i++ {
			pv.Get(i)
		}
	}
	if mv != nil {
		for i := 0; i < mv.Len(); i++ {
			mv.Get(i)
		}
		mv.DecodeAll(nil)
		if mv.Len() > 0 {
			mv.SearchGE(0, mv.Len(), mv.Get(mv.Len()/2))
		}
	}
}

// TestDecodeVectorsRejectCorruption replays corrupt encodings that once
// panicked or loaded: each must return an error. Every truncation and
// single-byte flip of valid encodings must error or decode to a vector
// whose every Get is in bounds.
func TestDecodeVectorsRejectCorruption(t *testing.T) {
	mono := NewMonotoneVector(prefixSum(codecTestPatterns[4].gen(100, rand.New(rand.NewSource(3))))).AppendBinary(nil)
	packed := PackSlice([]uint64{1, 2, 3, 1000}).AppendBinary(nil)

	// Widths length ^uint64(0): used to slice past the buffer.
	widthsLen := append([]byte(nil), mono...)
	_, k, _ := DecodePackedVector(mono[8:])
	binary.LittleEndian.PutUint64(widthsLen[8+k:], ^uint64(0))
	// n = 1<<40 with the original anchors: used to load, then panic on Get.
	hugeN := append([]byte(nil), mono...)
	binary.LittleEndian.PutUint64(hugeN, 1<<40)
	// Width 64, n = 1<<58: n·width wraps to 0 words.
	wrap := append([]byte{64}, binary.LittleEndian.AppendUint64(nil, 1<<58)...)
	for name, buf := range map[string][]byte{"widths_len": widthsLen, "huge_n": hugeN} {
		if _, _, err := DecodeMonotoneVector(buf); err == nil {
			t.Errorf("%s: corrupt monotone vector decoded without error", name)
		}
	}
	if _, _, err := DecodePackedVector(wrap); err == nil {
		t.Error("width-64 vector with wrapping n decoded without error")
	}

	for _, src := range [][]byte{mono, packed} {
		for cut := 0; cut < len(src); cut++ {
			mv, _, _ := DecodeMonotoneVector(src[:cut])
			pv, _, _ := DecodePackedVector(src[:cut])
			checkDecodedInBounds(mv, pv)
		}
		for i := range src {
			for _, x := range []byte{0x01, 0x80, 0xFF} {
				buf := append([]byte(nil), src...)
				buf[i] ^= x
				mv, _, _ := DecodeMonotoneVector(buf)
				pv, _, _ := DecodePackedVector(buf)
				checkDecodedInBounds(mv, pv)
			}
		}
	}
}

package bitutil

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzVals turns fuzzer bytes into a value sequence: each byte pair
// selects a width class and payload, so the fuzzer can express tiny
// deltas and wide values with equal ease (raw 8-byte chunks would
// almost never hit the narrow per-block widths).
func fuzzVals(data []byte) []uint64 {
	var out []uint64
	for i := 0; i+1 < len(data); i += 2 {
		shift := uint(data[i]) % 64
		out = append(out, uint64(data[i+1])<<shift)
	}
	return out
}

// FuzzCodecRoundTrip feeds adversarial value shapes through the packing,
// monotone through MonotoneVector and raw through PackedVector, and
// cross-checks every accessor and the serial round trip against the
// input. Any divergence — wrong value, wrong search result, encoding
// that doesn't round-trip — fails.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seeds: empty, single value, a tiny ramp, wide values, a width
	// alternation, and zeros across blocks. The checked-in corpus under
	// testdata/fuzz mirrors these shapes.
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 1})
	f.Add([]byte{59, 255, 0, 0, 59, 255})
	f.Add([]byte{0, 1, 30, 1, 0, 1, 30, 1, 0, 1})
	f.Add(make([]byte, 3*MonotoneBlockSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := fuzzVals(data)
		mono := prefixSum(raw)
		mv := NewMonotoneVector(mono)
		checkMonotone(t, mv, mono)
		back, n, err := DecodeMonotoneVector(mv.AppendBinary(nil))
		if err != nil {
			t.Fatalf("DecodeMonotoneVector: %v", err)
		}
		if n != len(mv.AppendBinary(nil)) {
			t.Fatalf("DecodeMonotoneVector consumed %d bytes", n)
		}
		checkMonotone(t, back, mono)

		pv, _, err := DecodePackedVector(packRaw(raw).AppendBinary(nil))
		if err != nil {
			t.Fatalf("DecodePackedVector: %v", err)
		}
		if pv.Len() != len(raw) {
			t.Fatalf("PackedVector Len %d != %d", pv.Len(), len(raw))
		}
		for i, want := range raw {
			if g := pv.Get(i); g != want {
				t.Fatalf("PackedVector Get(%d)=%d want %d", i, g, want)
			}
		}
	})
}

// FuzzMonotoneDeltaPatterns drives the monotone encoder with explicit
// delta streams (varint-decoded from the input), hunting for carry and
// anchor bugs in the per-block delta layout.
func FuzzMonotoneDeltaPatterns(f *testing.F) {
	seed := make([]byte, 0, 64)
	for i := 0; i < 20; i++ {
		seed = binary.AppendUvarint(seed, uint64(i*i))
	}
	f.Add(seed)
	f.Add([]byte{0x80, 0x80, 0x01, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []uint64
		var sum uint64
		for len(data) > 0 && len(vals) < 4096 {
			d, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			d %= 1 << 32 // keep sums far from overflow
			sum += d
			vals = append(vals, sum)
		}
		mv := NewMonotoneVector(vals)
		if len(vals) > 0 && !reflect.DeepEqual(mv.DecodeAll(nil), vals) {
			t.Fatal("delta round-trip mismatch")
		}
		var blk [MonotoneBlockSize]uint64
		for b := 0; b*MonotoneBlockSize < len(vals); b++ {
			cnt := mv.DecodeBlockInto(b, &blk)
			for j := 0; j < cnt; j++ {
				if blk[j] != vals[b*MonotoneBlockSize+j] {
					t.Fatalf("block %d[%d] mismatch", b, j)
				}
			}
		}
	})
}

// FuzzDecodeVectors feeds arbitrary bytes to both vector decoders —
// the bytes snapshot loading hands them. Each must return an error or
// a vector whose every element reads in bounds; a panic fails.
func FuzzDecodeVectors(f *testing.F) {
	f.Add([]byte{})
	f.Add(PackSlice([]uint64{1, 2, 3, 1 << 40}).AppendBinary(nil))
	f.Add(NewMonotoneVector([]uint64{0, 1, 2, 3, 100, 1 << 20, 1<<20 + 1}).AppendBinary(nil))
	f.Add(NewMonotoneVector(prefixSum(fuzzVals(make([]byte, 80)))).AppendBinary(nil))
	f.Add(append([]byte{64}, binary.LittleEndian.AppendUint64(nil, 1<<58)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		mv, _, _ := DecodeMonotoneVector(data)
		pv, _, _ := DecodePackedVector(data)
		checkDecodedInBounds(mv, pv)
	})
}

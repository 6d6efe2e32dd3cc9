package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// monotoneBlock is the number of elements per anchor block in a
// MonotoneVector. Smaller blocks mean faster random access (fewer deltas
// to sum) and — because each block picks its own delta width — better
// isolation of Ψ's delta=1 runs from occasional large deltas, which is
// where the structure's compression comes from. 16 balances per-block
// overhead (~3 bits/element) against run purity.
const monotoneBlock = 16

// monotoneHalf is the half-block sub-anchor position. A block's bit
// stream stores, in place of the plain delta for element monotoneHalf,
// the cumulative delta from the block anchor (monotoneHalf deltas summed
// fit in the block width + 3 bits), so a random access sums at most
// monotoneHalf-1 plain deltas from the nearer of the anchor and the
// sub-anchor — for 3 extra bits per block instead of a second absolute
// anchor table. Width-1 blocks (the bulk of Ψ for compressible text)
// skip the slot entirely: their prefix sum is a popcount of one bit
// window, already O(1).
const monotoneHalf = monotoneBlock / 2

// MonotoneBlockSize is monotoneBlock, exported so batch kernels can
// reason about which accesses share a cursor block without decoding.
const MonotoneBlockSize = monotoneBlock

// hasMid reports whether a block carries a sub-anchor slot: only blocks
// that extend past the midpoint and are wide enough that summing
// monotoneBlock-1 deltas would actually cost something. For w<=1 the
// prefix sum is a single masked popcount, so the 3 extra bits buy
// nothing.
func hasMid(w uint, cnt int) bool {
	return w >= 2 && cnt > monotoneHalf
}

// MonotoneVector stores a non-decreasing sequence of integers using block
// anchors plus bit-packed per-block deltas, where each block chooses its
// own delta width. Within each character bucket the succinct store's Ψ
// array is strictly increasing and — for compressible text — dominated by
// tiny deltas, so per-block widths are where the compression of the whole
// structure comes from.
//
// Random access to element i sums at most monotoneHalf deltas; use a
// MonotoneCursor for sequential access (one block decode per
// monotoneBlock elements).
type MonotoneVector struct {
	n       int
	anchors *PackedVector // absolute value at the start of each block
	widths  []byte        // delta bit width per block (0 = all deltas zero)
	bitOff  *PackedVector // starting bit of each block's deltas in bits
	bits    []uint64      // concatenated delta payload (with sub-anchor slots)
}

// midWidth returns the bit width of a block's sub-anchor slot: the
// cumulative delta over monotoneHalf deltas of width w needs w+3 bits,
// capped at a machine word.
func midWidth(w uint) uint {
	if w+3 > 64 {
		return 64
	}
	return w + 3
}

// blockPayloadBits returns the bit-stream size of a block holding cnt
// elements at delta width w: cnt-1 slots, one of which is the wider
// sub-anchor slot when the block extends past its midpoint.
func blockPayloadBits(w uint, cnt int) uint64 {
	if w == 0 || cnt <= 1 {
		return 0
	}
	if !hasMid(w, cnt) {
		return uint64(w) * uint64(cnt-1)
	}
	return uint64(w)*uint64(cnt-2) + uint64(midWidth(w))
}

// NewMonotoneVector compresses vals, which must be non-decreasing.
func NewMonotoneVector(vals []uint64) *MonotoneVector {
	n := len(vals)
	nblocks := (n + monotoneBlock - 1) / monotoneBlock
	anchorVals := make([]uint64, nblocks)
	widths := make([]byte, nblocks)
	offs := make([]uint64, nblocks)

	// First pass: anchors and per-block max delta.
	for b := 0; b < nblocks; b++ {
		start := b * monotoneBlock
		end := start + monotoneBlock
		if end > n {
			end = n
		}
		anchorVals[b] = vals[start]
		var maxDelta uint64
		for i := start + 1; i < end; i++ {
			if vals[i] < vals[i-1] {
				panic(fmt.Sprintf("bitutil: sequence not monotone at %d: %d < %d", i, vals[i], vals[i-1]))
			}
			if d := vals[i] - vals[i-1]; d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta > 0 {
			widths[b] = byte(WidthFor(maxDelta))
		}
	}

	// Lay out the bit stream.
	var totalBits uint64
	for b := 0; b < nblocks; b++ {
		offs[b] = totalBits
		start := b * monotoneBlock
		end := start + monotoneBlock
		if end > n {
			end = n
		}
		totalBits += blockPayloadBits(uint(widths[b]), end-start)
	}
	bits := make([]uint64, (totalBits+63)/64)
	for b := 0; b < nblocks; b++ {
		if widths[b] == 0 {
			continue
		}
		start := b * monotoneBlock
		end := start + monotoneBlock
		if end > n {
			end = n
		}
		pos := offs[b]
		w := uint(widths[b])
		mid := hasMid(w, end-start)
		for i := start + 1; i < end; i++ {
			if mid && i-start == monotoneHalf {
				// Sub-anchor slot: cumulative delta from the anchor.
				writeBits(bits, pos, midWidth(w), vals[i]-vals[start])
				pos += uint64(midWidth(w))
				continue
			}
			writeBits(bits, pos, w, vals[i]-vals[i-1])
			pos += uint64(w)
		}
	}

	return &MonotoneVector{
		n:       n,
		anchors: PackSlice(anchorVals),
		widths:  widths,
		bitOff:  PackSlice(offs),
		bits:    bits,
	}
}

// Len returns the number of elements.
func (mv *MonotoneVector) Len() int { return mv.n }

// Get returns element i by summing deltas from the nearer of the block
// anchor and the half-block sub-anchor: at most monotoneHalf-1 plain
// deltas plus possibly the sub-anchor slot. Width-1 blocks resolve in
// O(1) with a masked popcount.
func (mv *MonotoneVector) Get(i int) uint64 {
	block := i / monotoneBlock
	v := mv.anchors.Get(block)
	w := uint(mv.widths[block])
	if w == 0 {
		return v
	}
	j := i - block*monotoneBlock
	if j == 0 {
		return v
	}
	base := mv.bitOff.Get(block)
	if w == 1 {
		// The first j deltas are j consecutive bits: one windowed read,
		// one popcount.
		return v + uint64(bits.OnesCount64(readBits(mv.bits, base, uint(j))))
	}
	from := 0
	pos := base
	if j >= monotoneHalf {
		// j past the midpoint implies the block extends past it, so the
		// sub-anchor slot exists (w >= 2 here): jump to it, then sum the
		// plain deltas past it.
		pos += uint64(w) * uint64(monotoneHalf-1)
		v += readBits(mv.bits, pos, midWidth(w))
		pos += uint64(midWidth(w))
		from = monotoneHalf
	}
	for k := from + 1; k <= j; k++ {
		v += readBits(mv.bits, pos, w)
		pos += uint64(w)
	}
	return v
}

// decodeBlock expands block b into out[0:cnt] as absolute values,
// returning cnt (monotoneBlock, or less for the final block). One call
// replaces up to monotoneBlock delta re-sums on sequential access.
func (mv *MonotoneVector) decodeBlock(b int, out *[monotoneBlock]uint64) int {
	start := b * monotoneBlock
	cnt := mv.n - start
	if cnt > monotoneBlock {
		cnt = monotoneBlock
	}
	anchor := mv.anchors.Get(b)
	out[0] = anchor
	w := uint(mv.widths[b])
	if w == 0 {
		for k := 1; k < cnt; k++ {
			out[k] = anchor
		}
		return cnt
	}
	v := anchor
	pos := mv.bitOff.Get(b)
	mid := hasMid(w, cnt)
	for k := 1; k < cnt; k++ {
		if mid && k == monotoneHalf {
			v = anchor + readBits(mv.bits, pos, midWidth(w))
			pos += uint64(midWidth(w))
		} else {
			v += readBits(mv.bits, pos, w)
			pos += uint64(w)
		}
		out[k] = v
	}
	return cnt
}

// SearchGE returns the smallest index i in [lo, hi) with Get(i) >= target,
// or hi if none. The sequence is non-decreasing by construction.
//
// Instead of binary-searching element probes (each a delta re-sum), it
// binary-searches the O(1) block anchors to isolate the single candidate
// block, decodes that block once, and scans the decoded values.
func (mv *MonotoneVector) SearchGE(lo, hi int, target uint64) int {
	if lo >= hi {
		return lo
	}
	b0 := lo / monotoneBlock
	b1 := (hi - 1) / monotoneBlock
	// First block past b0 whose anchor reaches target: every in-range
	// index at or past its start satisfies the predicate, so the answer
	// is inside the preceding block or is that block's first index.
	loB, hiB := b0+1, b1+1
	for loB < hiB {
		mid := int(uint(loB+hiB) >> 1)
		if mv.anchors.Get(mid) >= target {
			hiB = mid
		} else {
			loB = mid + 1
		}
	}
	bb := loB
	var vals [monotoneBlock]uint64
	start := (bb - 1) * monotoneBlock
	cnt := mv.decodeBlock(bb-1, &vals)
	from, to := lo, hi
	if from < start {
		from = start
	}
	if to > start+cnt {
		to = start + cnt
	}
	for i := from; i < to; i++ {
		if vals[i-start] >= target {
			return i
		}
	}
	if bb <= b1 {
		return bb * monotoneBlock
	}
	return hi
}

// SizeBytes returns the in-memory footprint of the payload.
func (mv *MonotoneVector) SizeBytes() int {
	return mv.anchors.SizeBytes() + len(mv.widths) + mv.bitOff.SizeBytes() + len(mv.bits)*8
}

// AppendBinary serializes the vector.
func (mv *MonotoneVector) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mv.n))
	buf = mv.anchors.AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mv.widths)))
	buf = append(buf, mv.widths...)
	buf = mv.bitOff.AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mv.bits)))
	for _, w := range mv.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeMonotoneVector reads a vector serialized with AppendBinary and
// returns it with the number of bytes consumed. The bytes may come from
// outside the process, so every count is bounded by the buffer before
// anything is allocated, n is cross-checked against the anchor, width
// and offset tables, and every block's payload must lie inside the bit
// stream: a vector that decodes without error answers Get in bounds.
func DecodeMonotoneVector(buf []byte) (*MonotoneVector, int, error) {
	if len(buf) < 8 {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone vector")
	}
	n64 := binary.LittleEndian.Uint64(buf)
	pos := 8
	anchors, k, err := DecodePackedVector(buf[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += k
	nblocks := anchors.Len()
	// ceil(n/monotoneBlock) must equal the anchor count; comparing in
	// uint64 before the division keeps a huge n from wrapping.
	if n64 > uint64(nblocks)*monotoneBlock || (n64+monotoneBlock-1)/monotoneBlock != uint64(nblocks) {
		return nil, 0, fmt.Errorf("bitutil: monotone vector length %d disagrees with %d anchors", n64, nblocks)
	}
	if len(buf) < pos+8 {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone widths")
	}
	nw := binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	if nw != uint64(nblocks) {
		return nil, 0, fmt.Errorf("bitutil: monotone vector has %d widths for %d blocks", nw, nblocks)
	}
	if len(buf)-pos < nblocks {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone widths payload")
	}
	widths := append([]byte(nil), buf[pos:pos+nblocks]...)
	pos += nblocks
	bitOff, k, err := DecodePackedVector(buf[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += k
	if bitOff.Len() != nblocks {
		return nil, 0, fmt.Errorf("bitutil: monotone vector has %d bit offsets for %d blocks", bitOff.Len(), nblocks)
	}
	if len(buf) < pos+8 {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone bits header")
	}
	nb := binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	if nb > uint64(len(buf)-pos)/8 {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone bits payload")
	}
	totalBits := nb * 64
	n := int(n64)
	for b, w := range widths {
		if w > 64 {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d width %d out of range", b, w)
		}
		cnt := n - b*monotoneBlock
		if cnt > monotoneBlock {
			cnt = monotoneBlock
		}
		need := blockPayloadBits(uint(w), cnt)
		if off := bitOff.Get(b); need > totalBits || off > totalBits-need {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d payload past the bit stream", b)
		}
	}
	mv := &MonotoneVector{n: n, anchors: anchors, widths: widths, bitOff: bitOff, bits: make([]uint64, nb)}
	for i := range mv.bits {
		mv.bits[i] = binary.LittleEndian.Uint64(buf[pos+i*8:])
	}
	pos += int(nb) * 8
	return mv, pos, nil
}

// MonotoneCursor streams a MonotoneVector: each block is decoded once
// into a small buffer and then read by index, so a sequential pass
// costs one block decode per monotoneBlock elements instead of one
// delta re-sum per element. A cursor is a value type — keep it on the
// stack. Not safe for concurrent use (the underlying vector is).
type MonotoneCursor struct {
	mv    *MonotoneVector
	block int // decoded block index, -1 = none
	next  int // absolute index returned by the next Next call
	vals  [monotoneBlock]uint64
}

// Cursor returns a streaming cursor positioned at index 0.
func (mv *MonotoneVector) Cursor() MonotoneCursor {
	return MonotoneCursor{mv: mv, block: -1}
}

// Seek positions the cursor so the next Next call returns element i.
// Seeking within the already-decoded block keeps the buffer.
func (c *MonotoneCursor) Seek(i int) { c.next = i }

// Pos returns the absolute index the next Next call will return.
func (c *MonotoneCursor) Pos() int { return c.next }

// Next returns the element at the cursor and advances by one. The caller
// must not read past Len()-1.
func (c *MonotoneCursor) Next() uint64 {
	v := c.At(c.next)
	c.next++
	return v
}

// At returns element i, decoding its block only if it is not the one
// already buffered. The cursor position is unchanged.
func (c *MonotoneCursor) At(i int) uint64 {
	b := i / monotoneBlock
	if b != c.block {
		c.mv.decodeBlock(b, &c.vals)
		c.block = b
	}
	return c.vals[i-b*monotoneBlock]
}

// DecodeAll appends every element to dst and returns it.
func (mv *MonotoneVector) DecodeAll(dst []uint64) []uint64 {
	var blk [monotoneBlock]uint64
	nblocks := (mv.n + monotoneBlock - 1) / monotoneBlock
	for b := 0; b < nblocks; b++ {
		cnt := mv.decodeBlock(b, &blk)
		dst = append(dst, blk[:cnt]...)
	}
	return dst
}

// DecodeBlockInto expands block b into dst as absolute values and
// returns the element count (short for the final block; only the first
// count slots are written). Batch kernels use it to fill a shared
// decoded-block cache where one decode serves every later access to
// the block as a plain array read.
func (mv *MonotoneVector) DecodeBlockInto(b int, dst *[MonotoneBlockSize]uint64) int {
	return mv.decodeBlock(b, dst)
}

// writeBits stores the low w bits of v at bit position pos.
func writeBits(words []uint64, pos uint64, w uint, v uint64) {
	word, off := pos/64, uint(pos%64)
	words[word] |= v << off
	if off+w > 64 {
		words[word+1] |= v >> (64 - off)
	}
}

// readBits reads w bits at bit position pos.
func readBits(words []uint64, pos uint64, w uint) uint64 {
	word, off := pos/64, uint(pos%64)
	v := words[word] >> off
	if off+w > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & (^uint64(0) >> (64 - w))
}

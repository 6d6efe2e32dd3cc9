// Package layout implements ZipG's graph representation (§3.3 of the
// paper): the NodeFile and EdgeFile flat-file layouts, the delimiter
// scheme for property IDs, and the fixed-width numeric encodings that
// trade uncompressed size for random access into the compressed form.
//
// Layout views are written against a ByteSource abstraction so the exact
// same query code runs over a compressed succinct store (immutable
// shards) and over raw append-only bytes (the query-optimized LogStore of
// §3.5).
package layout

import (
	"bytes"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

// ByteSource is the storage primitive the NodeFile/EdgeFile views query:
// random access (extract) and substring search, per Succinct's interface
// (§3.1).
type ByteSource interface {
	// Extract returns up to n bytes starting at off (truncated at EOF).
	Extract(off, n int) []byte
	// Search returns the offsets of all occurrences of pattern, ascending.
	Search(pattern []byte) []int64
	// Count returns the number of occurrences of pattern.
	Count(pattern []byte) int
	// InputLen returns the length of the underlying flat file.
	InputLen() int
}

// Compile-time check: the succinct store satisfies ByteSource.
var _ ByteSource = (*succinct.Store)(nil)

// byteAppender is the optional zero-alloc extension of ByteSource:
// extract into a caller-supplied buffer instead of allocating the result.
// Both backing sources implement it; extractAppend falls back for any
// other ByteSource.
type byteAppender interface {
	ExtractAppend(dst []byte, off, n int) []byte
}

var (
	_ byteAppender = (*succinct.Store)(nil)
	_ byteAppender = (*RawSource)(nil)
)

// extractAppend appends up to n bytes at off to dst, reusing dst's
// capacity when the source supports it.
func extractAppend(src ByteSource, dst []byte, off, n int) []byte {
	if a, ok := src.(byteAppender); ok {
		return a.ExtractAppend(dst, off, n)
	}
	return append(dst, src.Extract(off, n)...)
}

// recWalk reads one record's bytes front to back over any ByteSource.
// Over a succinct store it wraps a Walker, so parsing a record's header,
// skipping to a field and reading the field is a single suffix-array walk
// (one ISA anchor) instead of one anchor per Extract call; over raw bytes
// it is plain offset arithmetic. A recWalk is a stack value — never
// retain one.
type recWalk struct {
	sw  succinct.Walker // valid iff ss != nil
	ss  *succinct.Store
	src ByteSource // fallback path
	off int        // fallback read position
}

// newRecWalk starts a walk at flat-file offset off.
func newRecWalk(src ByteSource, off int) recWalk {
	if s, ok := src.(*succinct.Store); ok {
		return recWalk{ss: s, sw: s.Walk(off)}
	}
	return recWalk{src: src, off: off}
}

// appendN reads the next n bytes into dst (truncated at EOF) and
// advances.
func (r *recWalk) appendN(dst []byte, n int) []byte {
	if r.ss != nil {
		return r.sw.Append(dst, n)
	}
	before := len(dst)
	dst = extractAppend(r.src, dst, r.off, n)
	r.off += len(dst) - before
	return dst
}

// skip advances n bytes without reading them.
func (r *recWalk) skip(n int) {
	if r.ss != nil {
		r.sw.Skip(n)
		return
	}
	r.off += n
}

// RawSource is an uncompressed ByteSource over a plain byte slice,
// charging a simulated medium for every touch. The LogStore and the
// baselines use it; it is also handy in tests as ground truth against the
// compressed path.
type RawSource struct {
	data []byte
	med  *memsim.Medium
	reg  uint32
}

// NewRawSource places data on med (nil = unlimited medium).
func NewRawSource(data []byte, med *memsim.Medium) *RawSource {
	if med == nil {
		med = memsim.Unlimited()
	}
	return &RawSource{data: data, med: med, reg: med.Register(int64(len(data)))}
}

// Append adds bytes to the source (LogStore growth) and returns the
// offset at which they were written.
func (r *RawSource) Append(b []byte) int64 {
	off := int64(len(r.data))
	r.data = append(r.data, b...)
	r.med.Grow(int64(len(b)))
	return off
}

// Extract implements ByteSource.
func (r *RawSource) Extract(off, n int) []byte {
	if off < 0 || off >= len(r.data) || n <= 0 {
		return nil
	}
	end := off + n
	if end > len(r.data) {
		end = len(r.data)
	}
	r.med.Access(r.reg, int64(off), int64(end-off))
	return r.data[off:end]
}

// ExtractAppend appends up to n bytes starting at off to dst.
func (r *RawSource) ExtractAppend(dst []byte, off, n int) []byte {
	return append(dst, r.Extract(off, n)...)
}

// Search implements ByteSource by linear scan. The scan charges the
// medium for the full pass — this is exactly the cost profile the paper
// ascribes to scanning uncompressed logs, and why the LogStore keeps
// explicit offset pointers to avoid calling this.
func (r *RawSource) Search(pattern []byte) []int64 {
	if len(pattern) == 0 {
		return nil
	}
	r.med.Access(r.reg, 0, int64(len(r.data)))
	var out []int64
	for i := 0; ; {
		k := bytes.Index(r.data[i:], pattern)
		if k < 0 {
			break
		}
		out = append(out, int64(i+k))
		i += k + 1
	}
	return out
}

// Count implements ByteSource.
func (r *RawSource) Count(pattern []byte) int { return len(r.Search(pattern)) }

// InputLen implements ByteSource.
func (r *RawSource) InputLen() int { return len(r.data) }

// Bytes exposes the raw backing slice (used when freezing a LogStore
// into a compressed shard).
func (r *RawSource) Bytes() []byte { return r.data }

// offsetToIndex translates a flat-file offset to the index of the record
// containing it, given the sorted record start offsets: the greatest i
// with starts[i] <= off.
func offsetToIndex(starts []int64, off int64) int {
	return bitutil.SearchGT(starts, off) - 1
}

// seqOffsetToIndex is offsetToIndex over a packed offset column: the
// greatest i with Get(i) <= off, via the vector's anchor-aware SearchGE.
func seqOffsetToIndex(offs *bitutil.MonotoneVector, off int64) int {
	return offs.SearchGE(0, offs.Len(), uint64(off)+1) - 1
}

// Package succinct implements the compressed flat-file store that ZipG
// builds on (Agarwal, Khandelwal, Stoica — "Succinct: Enabling Queries on
// Compressed Data", NSDI 2015).
//
// A Store holds a compressed representation of a byte string supporting
// two primitives without ever materializing the original:
//
//   - Extract(off, len): random access to any substring, and
//   - Search(pattern): offsets of every occurrence of a substring.
//
// The representation is the one the paper describes: a suffix array (SA)
// and its inverse (ISA), both kept only at a sampling rate α, plus the
// "next pointer array" NPA (elsewhere called Ψ), where
//
//	Ψ[i] = ISA[(SA[i]+1) mod n].
//
// Ψ is strictly increasing within each character bucket of the suffix
// array, so it is stored as per-bucket block-compressed monotone
// sequences — this is where the compression comes from, and it shrinks
// with the compressibility of the input. Unsampled SA/ISA values are
// recovered by walking Ψ at most α steps, giving the paper's space/latency
// knob: space ≈ 2n·log(n)/α for the samples, latency ∝ α.
package succinct

import (
	"fmt"
	"runtime"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
	"zipg/internal/suffix"
	"zipg/internal/telemetry"
)

// DefaultSamplingRate is the default α. 32 matches the Succinct paper's
// default operating point.
const DefaultSamplingRate = 32

// Store is an immutable compressed representation of a byte string.
// All methods are safe for concurrent use.
type Store struct {
	n     int // text length + 1 (sentinel)
	alpha int

	// Character buckets of the suffix array. bucketChar holds the shifted
	// byte values (original byte + 1; 0 is the sentinel) present in the
	// text in ascending order; rows [bucketStart[k], bucketStart[k+1])
	// hold the suffixes beginning with bucketChar[k].
	bucketChar  []int32
	bucketStart []int32

	// rowDir is the sampled row→bucket directory: rowDir[r>>rowDirShift]
	// is the bucket containing row r<<rowDirShift, making bucketOfRow —
	// executed once per Ψ step — O(1) amortized instead of a binary
	// search. Derived from bucketStart; a few KB, charged to the medium.
	rowDir []int32

	// psiBlockBase numbers every bucket's monotone blocks in one global
	// sequence: bucket k's block j has global ID psiBlockBase[k]+j, and
	// psiBlocks is the total. Batch kernels key their per-batch
	// decoded-block cache by global ID. Derived; rebuilt at load.
	psiBlockBase []int32
	psiBlocks    int

	// Ψ, stored per bucket.
	psi []*bitutil.MonotoneVector

	// Value-sampled SA: saSampleBits marks rows whose SA value is a
	// multiple of α; saSamples holds those values in row order.
	saSampleBits *bitutil.Bitmap
	saSamples    *bitutil.PackedVector

	// Position-sampled ISA: isaSamples[j] = ISA[j*α].
	isaSamples *bitutil.PackedVector

	// Simulated storage placement.
	med            *memsim.Medium
	regPsi         uint32
	regSA          uint32
	regISA         uint32
	psiBytesPerRow float64
}

// Options configures Build.
type Options struct {
	// SamplingRate is α; 0 means DefaultSamplingRate.
	SamplingRate int
	// Medium is the simulated storage the structure lives on; nil means
	// an unlimited (never-missing) medium.
	Medium *memsim.Medium
}

// Build compresses text. The text may contain any byte values.
func Build(text []byte, opts Options) *Store {
	alpha := opts.SamplingRate
	if alpha <= 0 {
		alpha = DefaultSamplingRate
	}
	med := opts.Medium
	if med == nil {
		med = memsim.Unlimited()
	}

	sa := suffix.Array(text)
	n := len(sa)

	isa := make([]int32, n)
	for i, p := range sa {
		isa[p] = int32(i)
	}

	s := &Store{n: n, alpha: alpha, med: med}

	// Character buckets. The shifted alphabet has the sentinel at 0.
	present := make([]bool, 257)
	present[0] = true
	for _, c := range text {
		present[int32(c)+1] = true
	}
	for c := int32(0); c < 257; c++ {
		if present[c] {
			s.bucketChar = append(s.bucketChar, c)
		}
	}
	charOfPos := func(p int32) int32 {
		if int(p) == n-1 {
			return 0
		}
		return int32(text[p]) + 1
	}
	// Row ranges per bucket: suffixes are sorted, so the first row of each
	// bucket is found by scanning once.
	s.bucketStart = make([]int32, len(s.bucketChar)+1)
	{
		bi := 0
		for row := 0; row < n; row++ {
			c := charOfPos(sa[row])
			for s.bucketChar[bi] != c {
				bi++
				s.bucketStart[bi] = int32(row)
			}
		}
		for bi++; bi < len(s.bucketStart); bi++ {
			s.bucketStart[bi] = int32(n)
		}
	}

	// Ψ per bucket.
	psiVals := make([]uint64, 0, n)
	s.psi = make([]*bitutil.MonotoneVector, len(s.bucketChar))
	var psiBytes int
	for b := range s.bucketChar {
		psiVals = psiVals[:0]
		for row := s.bucketStart[b]; row < s.bucketStart[b+1]; row++ {
			next := int(sa[row]) + 1
			if next == n {
				next = 0
			}
			psiVals = append(psiVals, uint64(isa[next]))
		}
		s.psi[b] = bitutil.NewMonotoneVector(psiVals)
		psiBytes += s.psi[b].SizeBytes()
		// Builds run as background work (rollover compression, online
		// compaction) racing foreground queries; yield between buckets so
		// query latency is bounded by one bucket's encode, not the whole
		// Ψ region's.
		runtime.Gosched()
	}
	s.psiBytesPerRow = float64(psiBytes) / float64(n)

	// SA samples (by value), fixed-width at the width of a text offset.
	s.saSampleBits = bitutil.NewBitmap(n)
	for row := 0; row < n; row++ {
		if int(sa[row])%alpha == 0 {
			s.saSampleBits.Set(row)
		}
	}
	s.saSampleBits.FinishRank()
	width := bitutil.WidthFor(uint64(n - 1))
	s.saSamples = bitutil.NewPackedVector(s.saSampleBits.Ones(), width)
	for row, k := 0, 0; row < n; row++ {
		if s.saSampleBits.Get(row) {
			s.saSamples.Set(k, uint64(sa[row]))
			k++
		}
	}

	// ISA samples (by position).
	s.isaSamples = bitutil.NewPackedVector((n+alpha-1)/alpha, width)
	for p := 0; p < n; p += alpha {
		s.isaSamples.Set(p/alpha, uint64(isa[p]))
	}

	s.registerRegions()
	return s
}

// rowDirShift fixes the row→bucket directory's sampling stride at
// 1<<rowDirShift rows: one int32 per 256 rows is n/64 bytes — small
// against Ψ's ~2 bytes/row — and a stride can span at most 256 bucket
// boundaries in total across the whole directory, so the linear advance
// in bucketOfRow is O(1) amortized.
const rowDirShift = 8

// buildRowDir derives the sampled row→bucket directory from the bucket
// boundary table (never serialized; rebuilt at load).
func (s *Store) buildRowDir() {
	stride := 1 << rowDirShift
	dir := make([]int32, (s.n+stride-1)/stride)
	b := 0
	for si := range dir {
		row := int32(si << rowDirShift)
		for s.bucketStart[b+1] <= row {
			b++
		}
		dir[si] = int32(b)
	}
	s.rowDir = dir
}

// buildPsiBlockIndex derives the global block numbering from the bucket
// table (never serialized; rebuilt at load, like rowDir).
func (s *Store) buildPsiBlockIndex() {
	s.psiBlockBase = make([]int32, len(s.psi))
	total := 0
	for k, p := range s.psi {
		s.psiBlockBase[k] = int32(total)
		total += (p.Len() + bitutil.MonotoneBlockSize - 1) / bitutil.MonotoneBlockSize
	}
	s.psiBlocks = total
}

func (s *Store) registerRegions() {
	s.buildRowDir()
	s.buildPsiBlockIndex()
	var psiBytes int
	for _, p := range s.psi {
		psiBytes += p.SizeBytes()
	}
	s.regPsi = s.med.Register(int64(psiBytes))
	s.regSA = s.med.Register(int64(s.saSampleBits.SizeBytes() + s.saSamples.SizeBytes()))
	s.regISA = s.med.Register(int64(s.isaSamples.SizeBytes()))
	// Bucket boundary tables and the row→bucket directory are a few KB
	// and always hot; account for them in the footprint without charging
	// accesses.
	s.med.Grow(int64(len(s.bucketChar)*4 + len(s.bucketStart)*4 + len(s.rowDir)*4))
}

// InputLen returns the length of the original (uncompressed) text.
func (s *Store) InputLen() int { return s.n - 1 }

// SamplingRate returns α.
func (s *Store) SamplingRate() int { return s.alpha }

// CompressedSize returns the total in-memory footprint in bytes.
func (s *Store) CompressedSize() int {
	total := len(s.bucketChar)*4 + len(s.bucketStart)*4 + len(s.rowDir)*4
	for _, p := range s.psi {
		total += p.SizeBytes()
	}
	total += s.saSampleBits.SizeBytes() + s.saSamples.SizeBytes() + s.isaSamples.SizeBytes()
	return total
}

// Medium returns the simulated storage the store lives on.
func (s *Store) Medium() *memsim.Medium { return s.med }

// bucketOfRow returns the bucket index containing row: the directory
// entry for the row's stride, advanced past any bucket boundaries inside
// the stride. O(1) amortized — this runs once per Ψ step, so it is the
// single hottest lookup in the store.
func (s *Store) bucketOfRow(row int) int {
	b := int(s.rowDir[row>>rowDirShift])
	for int(s.bucketStart[b+1]) <= row {
		b++
	}
	return b
}

// bucketOfChar returns the bucket index for shifted char c, or -1.
func (s *Store) bucketOfChar(c int32) int {
	k := bitutil.SearchGE(s.bucketChar, c)
	if k < len(s.bucketChar) && s.bucketChar[k] == c {
		return k
	}
	return -1
}

// psiAt evaluates Ψ[row], charging the simulated medium when charge is
// set (the in-memory path); the cold path walks uncharged and pays one
// direct flat-file read instead (see Extract).
func (s *Store) psiAt(row int, charge bool) int {
	b := s.bucketOfRow(row)
	if charge {
		s.med.Access(s.regPsi, int64(float64(row)*s.psiBytesPerRow), 8)
	}
	return int(s.psi[b].Get(row - int(s.bucketStart[b])))
}

// stepRow returns the (shifted) first character of the suffix at row and
// Ψ[row] in one bucket lookup.
func (s *Store) stepRow(row int, charge bool) (c int32, next int) {
	b := s.bucketOfRow(row)
	if charge {
		s.med.Access(s.regPsi, int64(float64(row)*s.psiBytesPerRow), 8)
	}
	return s.bucketChar[b], int(s.psi[b].Get(row - int(s.bucketStart[b])))
}

// LookupSA returns SA[row]: the text offset of the suffix at the given
// suffix-array row. Cost: at most α Ψ steps.
func (s *Store) LookupSA(row int) int {
	if row < 0 || row >= s.n {
		panic(fmt.Sprintf("succinct: row %d out of range [0,%d)", row, s.n))
	}
	steps := 0
	for !s.saSampleBits.Get(row) {
		// Charge the walk at the same stride as extraction (see
		// extractChargeStride); a locate is at most α steps.
		if steps%8 == 0 {
			s.chargePsiAt(row)
		}
		row = s.psiAt(row, false)
		steps++
	}
	rank := s.saSampleBits.Rank1(row)
	s.med.Access(s.regSA, int64(rank)*8, 8)
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(steps))
	}
	v := int(s.saSamples.Get(rank)) - steps
	if v < 0 {
		v += s.n
	}
	return v
}

// LookupISA returns ISA[pos]: the suffix-array row of the suffix starting
// at text offset pos. Cost: at most α Ψ steps.
func (s *Store) LookupISA(pos int) int {
	if pos < 0 || pos >= s.n {
		panic(fmt.Sprintf("succinct: pos %d out of range [0,%d)", pos, s.n))
	}
	return s.lookupISA(pos, true)
}

func (s *Store) lookupISA(pos int, charge bool) int {
	q := pos / s.alpha
	if charge {
		s.med.Access(s.regISA, int64(q)*8, 8)
	}
	row := int(s.isaSamples.Get(q))
	for p := q * s.alpha; p < pos; p++ {
		row = s.psiAt(row, charge)
	}
	if telemetry.Enabled() {
		mISALookups.Inc()
		mPsiSteps.Add(int64(pos - q*s.alpha))
	}
	return row
}

// extractChargeStride bounds how often an extract's Ψ walk charges the
// medium: one page access per stride steps (plus the ISA sample page).
// A raw per-step charge would bill a 640-byte property extraction as
// ~650 random page touches, which is not how the deployed system behaves
// — the flat files are also persisted on SSD and a cold extraction is
// served by a positioned read ("a single SSD lookup for all queries",
// paper §5.2) while the resident structures serve hot ones. Sampling the
// walk models that batching while still letting the pages warm the
// cache, so residency — and hence each system's footprint — remains what
// decides performance under memory pressure.
const extractChargeStride = 64

// chargePsiAt bills one page access at row's position in the Ψ region.
func (s *Store) chargePsiAt(row int) {
	s.med.Access(s.regPsi, int64(float64(row)*s.psiBytesPerRow), 8)
}

// chargeISAAt bills the ISA sample page used for text position pos.
func (s *Store) chargeISAAt(pos int) {
	s.med.Access(s.regISA, int64(pos/s.alpha)*8, 8)
}

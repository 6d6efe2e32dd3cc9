package succinct

import (
	"encoding/binary"
	"fmt"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
)

// serialMagic identifies a serialized Store and its format version.
var serialMagic = []byte("ZSUC1\x00")

// MarshalBinary serializes the store into a flat byte slice. The format
// is what cmd/zipg-load writes and what servers load at startup; it
// mirrors the paper's "serialized flat files" persistence (§4.1).
func (s *Store) MarshalBinary() []byte {
	buf := append([]byte(nil), serialMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.alpha))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.bucketChar)))
	for _, c := range s.bucketChar {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, st := range s.bucketStart {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st))
	}
	for _, p := range s.psi {
		buf = p.AppendBinary(buf)
	}
	buf = s.saSampleBits.AppendBinary(buf)
	buf = s.saSamples.AppendBinary(buf)
	return s.isaSamples.AppendBinary(buf)
}

// UnmarshalStore reconstructs a Store serialized by MarshalBinary,
// placing it on med (nil for unlimited).
func UnmarshalStore(buf []byte, med *memsim.Medium) (*Store, error) {
	if med == nil {
		med = memsim.Unlimited()
	}
	if len(buf) < len(serialMagic) || string(buf[:len(serialMagic)]) != string(serialMagic) {
		return nil, fmt.Errorf("succinct: bad magic")
	}
	pos := len(serialMagic)
	if len(buf) < pos+24 {
		return nil, fmt.Errorf("succinct: truncated header")
	}
	s := &Store{med: med}
	s.n = int(binary.LittleEndian.Uint64(buf[pos:]))
	s.alpha = int(binary.LittleEndian.Uint64(buf[pos+8:]))
	nb := int(binary.LittleEndian.Uint64(buf[pos+16:]))
	pos += 24
	if s.n <= 0 || s.alpha <= 0 || nb <= 0 || nb > 257 {
		return nil, fmt.Errorf("succinct: corrupt header (n=%d alpha=%d buckets=%d)", s.n, s.alpha, nb)
	}
	need := nb*4 + (nb+1)*4
	if len(buf) < pos+need {
		return nil, fmt.Errorf("succinct: truncated bucket tables")
	}
	s.bucketChar = make([]int32, nb)
	for i := range s.bucketChar {
		s.bucketChar[i] = int32(binary.LittleEndian.Uint32(buf[pos+i*4:]))
	}
	pos += nb * 4
	s.bucketStart = make([]int32, nb+1)
	for i := range s.bucketStart {
		s.bucketStart[i] = int32(binary.LittleEndian.Uint32(buf[pos+i*4:]))
	}
	pos += (nb + 1) * 4

	s.psi = make([]*bitutil.MonotoneVector, nb)
	var psiBytes int
	for i := range s.psi {
		mv, k, err := bitutil.DecodeMonotoneVector(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("succinct: psi bucket %d: %w", i, err)
		}
		pos += k
		s.psi[i] = mv
		psiBytes += mv.SizeBytes()
	}
	s.psiBytesPerRow = float64(psiBytes) / float64(s.n)

	var err error
	var k int
	if s.saSampleBits, k, err = bitutil.DecodeBitmap(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: sa sample bitmap: %w", err)
	}
	pos += k
	if s.saSamples, k, err = bitutil.DecodePackedVector(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: sa samples: %w", err)
	}
	pos += k
	if s.isaSamples, _, err = bitutil.DecodePackedVector(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: isa samples: %w", err)
	}

	s.registerRegions()
	return s, nil
}

package succinct

import (
	"bytes"
	"testing"
)

// TestSerialV1ForLegacyCodec locks the serial format: every store
// marshals as ZSUC1, reloads to the same bytes and answers, and a blob
// with any other format version (the retired codec-tagged container
// differed only in that byte) is refused rather than misread.
func TestSerialV1ForLegacyCodec(t *testing.T) {
	text := bytes.Repeat([]byte("abracadabra$kalamazoo|"), 40)
	for _, alpha := range []int{4, 8, 32} {
		s := Build(text, Options{SamplingRate: alpha})
		blob := s.MarshalBinary()
		if !bytes.HasPrefix(blob, serialMagic) {
			t.Fatalf("alpha=%d: store marshaled with magic %q, want %q", alpha, blob[:6], serialMagic)
		}
		got, err := UnmarshalStore(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.MarshalBinary(), blob) {
			t.Fatalf("alpha=%d: reloaded store marshals to different bytes", alpha)
		}
		if !bytes.Equal(got.Extract(0, len(text)), text) {
			t.Fatalf("alpha=%d: reloaded store extracts different bytes", alpha)
		}
		if w, g := s.Count([]byte("abra")), got.Count([]byte("abra")); g != w {
			t.Fatalf("alpha=%d: reloaded Count = %d, want %d", alpha, g, w)
		}

		other := append([]byte(nil), blob...)
		other[4]++
		if _, err := UnmarshalStore(other, nil); err == nil {
			t.Fatalf("alpha=%d: blob with format version %q loaded", alpha, other[4])
		}
	}
}

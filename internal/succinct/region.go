package succinct

// Region describes one encoded region of a store for the per-fragment
// region report (zipg-cli regions, /debug/regions).
type Region struct {
	// Name names the region: "psi", "sa", "isa".
	Name string
	// Elems is the total element count across the region's vectors.
	Elems int
	// Bytes is the region's encoded in-memory footprint.
	Bytes int
}

// Regions reports the element count and encoded size of each region
// (Ψ, SA samples, ISA samples).
func (s *Store) Regions() []Region {
	psi := Region{Name: "psi"}
	for _, p := range s.psi {
		psi.Elems += p.Len()
		psi.Bytes += p.SizeBytes()
	}
	return []Region{
		psi,
		{Name: "sa", Elems: s.saSamples.Len(), Bytes: s.saSamples.SizeBytes()},
		{Name: "isa", Elems: s.isaSamples.Len(), Bytes: s.isaSamples.SizeBytes()},
	}
}

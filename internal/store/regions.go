package store

import (
	"fmt"
	"strings"

	"zipg/internal/succinct"
)

// FragmentRegions describes one compressed fragment for the region
// report (zipg-cli regions, /debug/regions): which fragment, the α its
// succinct stores sample at, and every packed region.
type FragmentRegions struct {
	// Fragment names the shard: "primary/<p>" or "frozen/<gen>".
	Fragment string
	// Alpha is the sampling rate the fragment was built with.
	Alpha int
	// Regions lists the fragment's packed regions.
	Regions []succinct.Region
}

// RegionReport describes every compressed fragment's sampling rate and
// regions — the data behind the regions admin surface.
func (s *Store) RegionReport() []FragmentRegions {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FragmentRegions, 0, len(s.primaries)+len(s.frozen))
	for p, sh := range s.primaries {
		out = append(out, FragmentRegions{
			Fragment: fmt.Sprintf("primary/%d", p),
			Alpha:    sh.SamplingRate(),
			Regions:  sh.Regions(),
		})
	}
	for g, f := range s.frozen {
		if f.raw != nil {
			// Sealed but not yet compressed: no regions to report.
			out = append(out, FragmentRegions{
				Fragment: fmt.Sprintf("frozen/%d (raw, awaiting compression)", g),
			})
			continue
		}
		out = append(out, FragmentRegions{
			Fragment: fmt.Sprintf("frozen/%d", g),
			Alpha:    f.shard.SamplingRate(),
			Regions:  f.shard.Regions(),
		})
	}
	return out
}

// FormatRegionReport renders a region report as the text table the
// regions admin surfaces (zipg-cli regions, /debug/regions) print: one
// line per region with its element count and encoded bytes, grouped
// under per-fragment headers that carry α.
func FormatRegionReport(report []FragmentRegions) string {
	var b strings.Builder
	b.WriteString("# per-shard region report: fragment (alpha) then one line per packed region\n")
	for _, fr := range report {
		fmt.Fprintf(&b, "%s  alpha=%d\n", fr.Fragment, fr.Alpha)
		for _, r := range fr.Regions {
			fmt.Fprintf(&b, "  %-13s %9d elems %10d bytes\n", r.Name, r.Elems, r.Bytes)
		}
	}
	return b.String()
}

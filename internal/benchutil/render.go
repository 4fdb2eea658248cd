package benchutil

import (
	"fmt"
	"sort"
	"strings"
)

// Render formats a throughput figure as an aligned text table.
func (f ThroughputFigure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s: %s\n", f.ID, f.Title)

	xs := map[int]bool{}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			xs[pt.X] = true
		}
	}
	sorted := make([]int, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)

	fmt.Fprintf(&sb, "%8s", f.XLabel[:min(8, len(f.XLabel))])
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " %20s", s.Name+" (GB/s)")
	}
	sb.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&sb, "%8d", x)
		for _, s := range f.Series {
			v, ok := lookupT(s, x)
			if !ok {
				fmt.Fprintf(&sb, " %20s", "-")
			} else {
				fmt.Fprintf(&sb, " %20.3f", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func lookupT(s ThroughputSeries, x int) (float64, bool) {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.GBps, true
		}
	}
	return 0, false
}

// SeriesByName returns the named series, or an empty one.
func (f ThroughputFigure) SeriesByName(name string) ThroughputSeries {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return ThroughputSeries{}
}

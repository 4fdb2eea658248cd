package complexity

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedCSVs regenerates the committed XOR-count artifacts
// (artifacts/csv, written by `libbench -all -csv artifacts/csv`) with
// cmd/libbench's parameters, k = 2..22 with p following k and k = 2..23
// at its default -p 31, and requires them byte for byte: the counts are
// exact, so any change to a schedule, a normalisation or the CSV layout
// shows here before it reaches a figure. Under -race the two decode
// figures (1.1 s and 3.4 s, ten times that instrumented) are left to the
// plain run.
func TestCommittedCSVs(t *testing.T) {
	ksVary, ksFixed := ksRange(2, 22), ksRange(2, 23)
	const fixedP = 31
	for _, c := range []struct {
		name   string
		fig    func() Figure
		decode bool
	}{
		{"fig5", func() Figure { return EncodingFigure(ksVary, 0) }, false},
		{"fig6", func() Figure { return EncodingFigure(ksFixed, fixedP) }, false},
		{"fig7", func() Figure { return DecodingFigure(ksVary, 0) }, true},
		{"fig8", func() Figure { return DecodingFigure(ksFixed, fixedP) }, true},
		{"update", func() Figure { return UpdateFigure(ksVary, 0) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.decode && raceEnabled {
				t.Skip("exhaustive decode sweep: checked without -race")
			}
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "artifacts", "csv", c.name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			got := c.fig().CSV()
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gl), len(wl)) {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("%s.csv line %d:\n got  %q\n want %q\n(regenerate with `go run ./cmd/libbench -fig %s -csv artifacts/csv` if the change is meant)",
						c.name, i+1, g, w, strings.TrimPrefix(c.name, "fig"))
				}
			}
		})
	}
}

// ksRange returns lo, lo+1, ..., hi, as cmd/libbench's rangeInts.
func ksRange(lo, hi int) []int {
	ks := make([]int, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

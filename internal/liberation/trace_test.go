package liberation

import (
	"strings"
	"testing"
)

func TestDecodeTraceBuilding(t *testing.T) {
	tr := &DecodeTrace{Code: "liberation(k=5,p=5)", K: 5, P: 5, L: 1, R: 3,
		StartRow: 2, RowSyndromes: 1, DiagSyndromes: 2}
	tr.ReuseHit()
	tr.ReuseHit()
	tr.AddStep(0, 2, "row-resolve")
	tr.AddStep(1, 4, "row-resolve", "pairA-resolve(l)")
	if len(tr.Steps) != 2 || tr.Steps[1].Row != 4 || len(tr.Steps[1].Events) != 2 {
		t.Errorf("Steps = %+v, want two, the second at row 4 with two events", tr.Steps)
	}
	if tr.CommonReuse != 2 {
		t.Errorf("CommonReuse = %d, want 2", tr.CommonReuse)
	}
	out := tr.String()
	for _, want := range []string{"liberation(k=5,p=5)", "erased=(1,3)",
		"1 row + 2 anti-diagonal", "step  0", "pairA-resolve(l)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeTraceNilSafety(t *testing.T) {
	var tr *DecodeTrace
	tr.AddStep(0, 0, "x")
	tr.ReuseHit()
	if tr.String() != "decode-trace(nil)" {
		t.Errorf("nil rendering = %q", tr.String())
	}
}

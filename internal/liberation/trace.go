package liberation

import (
	"fmt"
	"strings"
)

// DecodeTrace is a structured record of how the paper's optimal decoder
// (Algorithms 2-4) planned the recovery of two erased data columns (see
// Code.TraceDecode). The plan is data-independent — it depends only on
// (k, p, l, r) — so the trace doubles as a debugging aid for a live
// decode and as the artifact tests use to assert the paper's step-count
// claims: len(Steps) is p, and RowSyndromes+DiagSyndromes bounds the
// XORs the decode pays over the 2p(k-1) lower bound, before
// common-expression savings.
type DecodeTrace struct {
	Code string `json:"code"` // code identity, e.g. "liberation(k=5,p=5)"
	K    int    `json:"k"`
	P    int    `json:"p"`

	// L and R are the erased data columns in the orientation Algorithm 2
	// settled on; Swapped reports that the cheaper flipped orientation
	// won (the paper's second decoding trick).
	L       int  `json:"l"`
	R       int  `json:"r"`
	Swapped bool `json:"swapped"`

	// Algorithm 2's starting point: the decoder seeds element (StartRow,
	// R) with the sum of RowSyndromes row syndromes and DiagSyndromes
	// anti-diagonal syndromes.
	StartRow      int `json:"start_row"`
	RowSyndromes  int `json:"row_syndromes"`
	DiagSyndromes int `json:"diag_syndromes"`

	// CommonReuse counts the known common expressions (pairs untouched by
	// the erasure) Algorithm 3 reused while building the syndromes.
	CommonReuse int `json:"common_reuse"`

	// Steps is Algorithm 4's zig-zag retrieval chain, one entry per loop
	// iteration; each iteration recovers one element of column L via a row
	// constraint and resolves one element of column R via an anti-diagonal.
	Steps []TraceStep `json:"steps"`

	// XORs and Copies are the compiled plan's total element operations —
	// the exact cost a Decode with this erasure pattern will report
	// through core.Ops.
	XORs   int `json:"xors"`
	Copies int `json:"copies"`
}

// TraceStep is one iteration of Algorithm 4's retrieval loop.
type TraceStep struct {
	Index int `json:"index"` // 0-based iteration number
	Row   int `json:"row"`   // the row x being resolved this iteration
	// Events names what the iteration did beyond the plain row/diagonal
	// alternation: pair-expression folds and resolutions.
	Events []string `json:"events,omitempty"`
}

// AddStep appends one zig-zag iteration. Nil-safe so the schedule builder
// can trace unconditionally.
func (t *DecodeTrace) AddStep(index, row int, events ...string) {
	if t == nil {
		return
	}
	t.Steps = append(t.Steps, TraceStep{Index: index, Row: row, Events: events})
}

// ReuseHit counts one common-expression reuse. Nil-safe.
func (t *DecodeTrace) ReuseHit() {
	if t != nil {
		t.CommonReuse++
	}
}

// String renders the trace for humans: header, starting point, then the
// zig-zag chain one step per line.
func (t *DecodeTrace) String() string {
	if t == nil {
		return "decode-trace(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "decode trace: %s erased=(%d,%d)", t.Code, t.L, t.R)
	if t.Swapped {
		b.WriteString(" [orientation swapped]")
	}
	fmt.Fprintf(&b, "\n  starting point: element (%d,%d) = sum of %d row + %d anti-diagonal syndromes\n",
		t.StartRow, t.R, t.RowSyndromes, t.DiagSyndromes)
	fmt.Fprintf(&b, "  common expressions reused: %d\n", t.CommonReuse)
	fmt.Fprintf(&b, "  plan cost: %d XORs, %d copies (lower bound %d)\n",
		t.XORs, t.Copies, 2*t.P*(t.K-1))
	for _, s := range t.Steps {
		fmt.Fprintf(&b, "  step %2d: row %2d", s.Index, s.Row)
		if len(s.Events) > 0 {
			fmt.Fprintf(&b, "  %s", strings.Join(s.Events, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

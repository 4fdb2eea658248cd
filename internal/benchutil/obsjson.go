package benchutil

import (
	"encoding/json"
	"os"
	"runtime"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
)

// ObsReport is the machine-readable observability artifact the bench
// harness can emit (see BENCH_OBS_JSON in the Makefile): the full metric
// snapshot of a deterministic instrumented workload, plus enough context
// to compare runs.
type ObsReport struct {
	GoVersion string       `json:"go_version"`
	GOARCH    string       `json:"goarch"`
	K         int          `json:"k"`
	P         int          `json:"p"`
	ElemSize  int          `json:"elem_size"`
	Stripes   int          `json:"stripes"`
	Snapshot  obs.Snapshot `json:"snapshot"`
}

// RunObservedWorkload drives a fixed encode + rebuild workload against an
// instrumented Liberation code and returns the resulting report. The
// element-operation counters are exactly reproducible; only the latency
// and throughput fields vary by machine.
func RunObservedWorkload(k, p, elemSize, stripes int) (*ObsReport, error) {
	reg := obs.NewRegistry()
	code, err := codes.NewObserved("liberation", k, p, reg)
	if err != nil {
		return nil, err
	}

	batch := make([]*core.Stripe, stripes)
	for i := range batch {
		s := core.NewStripe(k, code.W(), elemSize)
		for t := 0; t < k; t++ {
			for j := range s.Strips[t] {
				s.Strips[t][j] = byte(i + t + j) // deterministic fill
			}
		}
		batch[i] = s
	}
	for _, s := range batch {
		if err := code.Encode(s, nil); err != nil {
			return nil, err
		}
	}
	for _, s := range batch {
		s.ZeroStrip(0)
		s.ZeroStrip(2)
		if err := code.Decode(s, []int{0, 2}, nil); err != nil {
			return nil, err
		}
	}

	return &ObsReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		K:         k,
		P:         p,
		ElemSize:  elemSize,
		Stripes:   stripes,
		Snapshot:  reg.Snapshot(),
	}, nil
}

// WriteObsJSON writes the report as indented JSON to path.
func WriteObsJSON(path string, rep *ObsReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

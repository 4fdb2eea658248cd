// Command e2ebench is the repository's end-to-end benchmark: six seeded
// workloads through the public APIs of shard, raidsim and codes, each
// output checked, every metric printed by name with its unit and sample
// count. A traced run gives the per-layer split instead, measured from
// outside each layer. README.md describes the workloads, the metrics and
// the comparison protocol.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//	bash cmd/e2ebench/run.sh [--workload all] [--seed N] [--seconds S] [--trace 0|1]
//
// One workload runs in this process and prints, as its last line, a JSON
// object with correct, attempted, failed and metrics: the end-to-end
// metrics, or with --trace 1 the per-layer ones. --workload all runs a
// set: three rounds of every workload, interleaved, each run in a child
// process, and prints each metric's median over the rounds.
//
// Exit status: 0 when every output was correct, 1 on a wrong output or
// any other failure, 2 on bad usage.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout)) }

func mainExit(args []string, out io.Writer) int {
	flags := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := flags.String("workload", "all", "workload to run, or all for an interleaved set")
	seed := flags.Int64("seed", 1, "seed of every generated input")
	seconds := flags.Float64("seconds", 5, "measured seconds per run")
	trace := flags.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceDir := flags.String("trace-dir", "", "traced runs write <workload>.spans.jsonl and <workload>.layers.json here")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --workload NAME|all --seed N --seconds S>0 --trace 0|1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, sz: benchSizes}
	if cfg.workload == "all" {
		return runSet(cfg, out)
	}
	res, err := run(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := printResult(out, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setRounds is the number of rounds of a set. Rounds are interleaved
// across workloads (w1r1 ... w6r1, w1r2, ...) so that a slow spell of
// the host spreads over every workload instead of landing on one.
const setRounds = 3

// runSet runs every workload setRounds times, each run in a fresh child
// process, and prints the median of each metric over the rounds.
func runSet(cfg config, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defs, traceArg := endToEnd, "0"
	if cfg.trace {
		defs, traceArg = perLayer, "1"
	}
	vals := map[string][]float64{} // workload/metric -> one value per round
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for r := 1; r <= setRounds; r++ {
		for _, w := range workloads {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--trace", traceArg}
			if cfg.traceDir != "" {
				args = append(args, "--trace-dir", cfg.traceDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			res, err := lastResult(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: round %d %s: %v (%v)\n", r, w.name, err, runErr)
				total.Correct = false
				continue
			}
			fmt.Fprintf(out, "round %d %-15s attempted=%d failed=%d\n", r, w.name, res.Attempted, res.Failed)
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			total.Correct = total.Correct && res.Correct
			for _, d := range defs {
				key := w.name + "/" + d.name
				vals[key] = append(vals[key], res.Metrics[d.name].Value)
			}
		}
	}
	for _, w := range workloads {
		for _, d := range defs {
			key := w.name + "/" + d.name
			v := vals[key]
			if len(v) == 0 {
				continue
			}
			fmt.Fprintf(out, "set %-15s %-30s median=%-12.4f %s rounds=%s\n",
				w.name, d.name, median(v), d.unit, fmtFloats(v))
			total.Metrics[key] = metricValue{median(v), d.unit}
		}
	}
	if err := printResult(out, total); err != nil || !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result JSON on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

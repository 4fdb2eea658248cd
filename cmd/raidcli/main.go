// Command raidcli encodes files into erasure-coded shard sets and
// recovers them with up to m shards missing or silently corrupted —
// two for the RAID-6 families, three for the rs3 triple-parity code.
// The erasure code is selected by registry name (-code
// liberation|rdp|evenodd|rs3|...); -m cross-checks the family's parity
// count. Recovery reads the code from the manifest, where -code, -p,
// and -m act as cross-checks.
//
// Usage:
//
//	raidcli encode -k 6 [-code liberation] [-p 7] [-m M] [-elem 4096] [-out DIR] [-workers N] [-batch N] FILE
//	raidcli decode [-out FILE] [-code NAME] [-heal] [-workers N] [-batch N] MANIFEST
//	raidcli repair [-code NAME] [-workers N] [-batch N] MANIFEST
//	raidcli verify [-code NAME] MANIFEST
//	raidcli info [-code NAME] MANIFEST
//
// Encode, decode, repair, and verify all take -retries and
// -retry-backoff to bound the transient-I/O retry loop. With
// RAIDCLI_CHAOS set in the environment they additionally accept
// -fault-profile and -fault-seed, which route every byte of I/O through
// the seeded fault injector — a testing facility, refused without the
// environment opt-in.
//
// Every operation runs under a causal trace: -log-json streams the
// event log (retries, quarantines, heals, injected faults) as JSON
// lines on stderr, and -stats or -log-json print the trace ID; verify
// always prints it.
//
// Exit codes: 0 on success (including decodes that recovered in degraded
// mode, which warn on stderr), 1 on ordinary failure, 2 when the shard
// set is unrecoverable, 64 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// Exit codes: sysexits-style 64 for usage, 2 for an unrecoverable shard
// set (so scripts can tell "try another copy" from "operator error").
const (
	exitOK            = 0
	exitFail          = 1
	exitUnrecoverable = 2
	exitUsage         = 64
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	err := run(args[0], args[1:])
	if errors.Is(err, errUsage) {
		usage()
		return exitUsage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "raidcli:", err)
	}
	return exitCode(err)
}

// exitCode maps a subcommand error to the CLI's exit-code contract.
func exitCode(err error) int {
	var unrec *shard.UnrecoverableError
	var use *usageError
	switch {
	case err == nil:
		return exitOK
	case errors.As(err, &unrec):
		return exitUnrecoverable
	case errors.As(err, &use):
		return exitUsage
	default:
		return exitFail
	}
}

// errUsage asks main to print the usage text.
var errUsage = fmt.Errorf("unknown subcommand")

// usageError marks bad invocations (flag errors, wrong arity, chaos
// flags without the opt-in) so they exit 64 rather than 1.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// run dispatches one subcommand; split from main so tests can drive the
// CLI in-process.
func run(cmd string, args []string) error {
	switch cmd {
	case "encode":
		return cmdEncode(args)
	case "decode":
		return cmdDecode(args)
	case "repair":
		return cmdRepair(args)
	case "verify":
		return cmdVerify(args)
	case "info":
		return cmdInfo(args)
	default:
		return errUsage
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  raidcli encode -k K [-code NAME] [-p P] [-m M] [-elem N] [-out DIR] [-workers N] [-batch N] FILE
  raidcli decode [-out FILE] [-code NAME] [-heal] [-workers N] [-batch N] MANIFEST
  raidcli repair [-code NAME] [-workers N] [-batch N] MANIFEST
  raidcli verify [-code NAME] MANIFEST
  raidcli info [-code NAME] MANIFEST

code selection:
  -code NAME            erasure code by registry name (encode selects, default
                        `+codes.Default+`; recovery cross-checks the manifest).
                        Registered: `+strings.Join(codes.Names(), ", ")+`
  -p P                  prime parameter of the array codes (encode: 0 = smallest
                        usable; recovery cross-checks the manifest)
  -m M                  parity shard count the family must provide (0 = don't
                        check; the name picks the count — RAID-6 families have
                        2, rs3 has 3; recovery cross-checks the manifest)

robustness flags (encode/decode/repair/verify):
  -retries N            transient-I/O retries per operation (default 3)
  -retry-backoff D      base backoff before the first retry (default 1ms)
  -fault-profile NAME   inject faults from a named profile (needs RAIDCLI_CHAOS=1)
  -fault-seed N         seed for the fault schedule (default 1)

observability flags (encode/decode/repair/verify):
  -stats                print operation statistics and the trace ID
  -log-json             stream the causal event log as JSON lines on stderr`)
}

// ioFlags are the streaming + robustness flags shared by encode, decode,
// and repair.
type ioFlags struct {
	code           string
	prime          int
	parities       int
	workers, batch int
	stats          bool
	logJSON        bool
	retries        int
	backoff        time.Duration
	faultProfile   string
	faultSeed      int64
}

func addIOFlags(fs *flag.FlagSet) *ioFlags {
	f := &ioFlags{}
	addCodeFlags(fs, &f.code, &f.prime, &f.parities)
	fs.IntVar(&f.workers, "workers", 1, "parallel coding workers (0 = all cores)")
	fs.IntVar(&f.batch, "batch", 0, "stripes per streaming batch (0 = as many as fit 1 MiB, at least one per worker)")
	fs.BoolVar(&f.stats, "stats", false, "print operation statistics")
	fs.BoolVar(&f.logJSON, "log-json", false, "stream the operation's causal event log as JSON lines on stderr")
	fs.IntVar(&f.retries, "retries", 3, "transient-I/O retries per operation (0 disables)")
	fs.DurationVar(&f.backoff, "retry-backoff", time.Millisecond, "base backoff before the first retry")
	fs.StringVar(&f.faultProfile, "fault-profile", "", "fault-injection profile (requires RAIDCLI_CHAOS=1)")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "seed for the fault-injection schedule")
	return f
}

// addCodeFlags registers the code-selection flags shared by every
// subcommand: encode uses them to pick the code, the recovery commands
// treat them as cross-checks against the manifest.
func addCodeFlags(fs *flag.FlagSet, code *string, prime *int, parities *int) {
	fs.StringVar(code, "code", "", "erasure code by registry name: "+strings.Join(codes.Names(), ", "))
	fs.IntVar(prime, "p", 0, "prime parameter (0 = smallest usable)")
	fs.IntVar(parities, "m", 0, "parity shard count to require of the family (0 = don't check)")
}

// checkManifest cross-checks explicitly given -code/-p flags against a
// loaded manifest, catching an operator pointing the wrong expectation
// at a shard set before any shard I/O happens.
func checkManifest(m *shard.Manifest, code string, prime, parities int) error {
	if code != "" && code != m.Code {
		return usagef("manifest was encoded with code %q, not %q", m.Code, code)
	}
	if prime != 0 && prime != m.P {
		return usagef("manifest was encoded with p=%d, not %d", m.P, prime)
	}
	if parities != 0 && parities != m.M {
		return usagef("manifest was encoded with m=%d parities, not %d", m.M, parities)
	}
	return nil
}

// chaosEnabled reports whether the environment opted into fault
// injection.
func chaosEnabled() bool { return os.Getenv("RAIDCLI_CHAOS") != "" }

// options translates the parsed flags into shard.Options, wiring the
// retry policy and — behind the RAIDCLI_CHAOS gate — the fault injector.
func (f *ioFlags) options() (shard.Options, *obs.Registry, error) {
	workers := f.workers
	if workers == 0 {
		workers = -1 // on the command line 0 means all cores
	}
	var reg *obs.Registry
	if f.stats {
		reg = obs.NewRegistry()
	}
	sinks := []obs.EventSink{obs.NewFlightRecorder(obs.DefaultFlightSize)}
	if f.logJSON {
		sinks = append(sinks, obs.NewEventLog(os.Stderr, slog.LevelInfo))
	}
	opt := shard.Options{
		Workers:      workers,
		BatchStripes: f.batch,
		Registry:     reg,
		Tracer:       obs.NewTracer(sinks...),
		Retry: store.RetryPolicy{
			MaxAttempts: f.retries + 1,
			BaseBackoff: f.backoff,
		},
	}
	if f.faultProfile != "" {
		if !chaosEnabled() {
			return opt, reg, usagef(
				"-fault-profile is a testing facility; set RAIDCLI_CHAOS=1 to enable it")
		}
		cfg, err := faultstore.Profile(f.faultProfile, f.faultSeed)
		if err != nil {
			return opt, reg, usagef("%v (profiles: %v)", err, faultstore.Profiles())
		}
		cfg.Registry = reg
		opt.Store = faultstore.New(store.OS{}, cfg)
	}
	return opt, reg, nil
}

// traced takes the root span of the operation's causal trace, whose
// context the caller puts into shard.Options.Context so every retry,
// quarantine, and heal below chains onto one trace; done ends the root
// span and — under -stats or -log-json — prints the trace ID so the
// operator can correlate the run with its event log.
func (f *ioFlags) traced(root *obs.SpanCtx) (done func(error)) {
	return func(err error) {
		root.End(err)
		if f.stats || f.logJSON {
			fmt.Printf("trace: %s\n", root.TraceID())
		}
	}
}

// parseFlags runs fs over args, converting flag errors into usage
// errors, and enforces the positional arity.
func parseFlags(fs *flag.FlagSet, args []string, positional int, what string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return usagef("%s: %v", fs.Name(), err)
	}
	if fs.NArg() != positional {
		return usagef("%s needs exactly %s", fs.Name(), what)
	}
	return nil
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ContinueOnError)
	k := fs.Int("k", 4, "number of data shards")
	elem := fs.Int("elem", 4096, "element size in bytes")
	out := fs.String("out", ".", "output directory")
	iof := addIOFlags(fs)
	if err := parseFlags(fs, args, 1, "one input file"); err != nil {
		return err
	}
	opt, reg, err := iof.options()
	if err != nil {
		return err
	}
	opt.Code = iof.code
	if iof.parities != 0 {
		name := iof.code
		if name == "" {
			name = codes.Default
		}
		info, ok := codes.Lookup(name)
		if !ok {
			return usagef("unknown code %q (registered: %s)", name, strings.Join(codes.Names(), ", "))
		}
		if info.M != iof.parities {
			return usagef("code %q has %d parities, not %d — pick a family with the parity count you need (see -code)",
				name, info.M, iof.parities)
		}
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	ctx, root := obs.StartOp(context.Background(), opt.Tracer, reg, "raidcli.encode")
	opt.Context = ctx
	done := iof.traced(root)
	m, err := shard.EncodeOpts(f, st.Size(), filepath.Base(path), *k, iof.prime, *elem, *out, opt)
	done(err)
	if err != nil {
		return err
	}
	fmt.Printf("encoded %s (%d bytes) as %d+%d shards (%s, p=%d, %d stripes, element %dB) in %s\n",
		m.FileName, m.FileSize, m.K, m.M, m.Code, m.P, m.Stripes, m.ElemSize, *out)
	printStats(os.Stdout, reg, m.K)
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default: recovered.<name>)")
	heal := fs.Bool("heal", false, "scan every stripe with column correction while decoding a version 1-4 set (version 5 sets check every strip)")
	iof := addIOFlags(fs)
	if err := parseFlags(fs, args, 1, "one manifest"); err != nil {
		return err
	}
	opt, reg, err := iof.options()
	if err != nil {
		return err
	}
	opt.Heal = *heal
	manifest := fs.Arg(0)
	m, err := shard.LoadManifest(manifest)
	if err != nil {
		return err
	}
	if err := checkManifest(m, iof.code, iof.prime, iof.parities); err != nil {
		return err
	}
	dest := *out
	if dest == "" {
		dest = "recovered." + m.FileName
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	ctx, root := obs.StartOp(context.Background(), opt.Tracer, reg, "raidcli.decode")
	opt.Context = ctx
	done := iof.traced(root)
	rep, err := shard.DecodeReport(manifest, f, opt)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	done(err)
	if rep != nil {
		for _, st := range rep.Status {
			mark := st.State.String()
			if st.State != shard.StateOK {
				mark += " (reconstructed)"
			}
			fmt.Printf("  shard %-14s %s\n", st.Name, mark)
		}
	}
	if err != nil {
		// Never leave a partial recovery behind for someone to trust.
		os.Remove(dest)
		return err
	}
	if rep.Degraded {
		fmt.Fprintf(os.Stderr,
			"raidcli: warning: recovered in degraded mode (quarantined shards %v, %d stripes corrected, %d attempts)\n",
			rep.Quarantined, rep.Corrections, rep.Attempts)
	}
	fmt.Printf("recovered %d bytes into %s\n", m.FileSize, dest)
	printStats(os.Stdout, reg, m.K)
	return nil
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	iof := addIOFlags(fs)
	if err := parseFlags(fs, args, 1, "one manifest"); err != nil {
		return err
	}
	opt, reg, err := iof.options()
	if err != nil {
		return err
	}
	m, err := shard.LoadManifest(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := checkManifest(m, iof.code, iof.prime, iof.parities); err != nil {
		return err
	}
	ctx, root := obs.StartOp(context.Background(), opt.Tracer, reg, "raidcli.repair")
	opt.Context = ctx
	done := iof.traced(root)
	repaired, err := shard.RepairOpts(fs.Arg(0), opt)
	done(err)
	if err != nil {
		return err
	}
	if len(repaired) == 0 {
		fmt.Println("all shards healthy")
	} else {
		fmt.Printf("repaired shards %v\n", repaired)
	}
	printStats(os.Stdout, reg, m.K)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	iof := addIOFlags(fs)
	if err := parseFlags(fs, args, 1, "one manifest"); err != nil {
		return err
	}
	opt, reg, err := iof.options()
	if err != nil {
		return err
	}
	if m, merr := shard.LoadManifest(fs.Arg(0)); merr == nil {
		if err := checkManifest(m, iof.code, iof.prime, iof.parities); err != nil {
			return err
		}
	}
	ctx, root := obs.StartOp(context.Background(), opt.Tracer, reg, "raidcli.verify")
	opt.Context = ctx
	err = shard.Verify(fs.Arg(0), opt)
	root.End(err)
	// Verify always names its trace: a health check's ID is the handle
	// an operator quotes when escalating.
	fmt.Printf("trace: %s\n", root.TraceID())
	var deg *shard.DegradedError
	if errors.As(err, &deg) {
		for _, st := range deg.Status {
			fmt.Printf("  shard %-14s %s\n", st.Name, st.State)
		}
		fmt.Fprintf(os.Stderr, "raidcli: warning: %v\n", err)
		return nil // still recoverable: exit 0 with the warning
	}
	if err != nil {
		return err
	}
	fmt.Println("all shards healthy")
	printStats(os.Stdout, reg, 0)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	var codeName string
	var prime, parities int
	addCodeFlags(fs, &codeName, &prime, &parities)
	if err := parseFlags(fs, args, 1, "one manifest"); err != nil {
		return err
	}
	m, err := shard.LoadManifest(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := checkManifest(m, codeName, prime, parities); err != nil {
		return err
	}
	desc := ""
	if info, ok := codes.Lookup(m.Code); ok {
		desc = " — " + info.Description
	}
	fmt.Printf("file:      %s (%d bytes)\n", m.FileName, m.FileSize)
	fmt.Printf("code:      %s k=%d p=%d w=%d m=%d (tolerates any %d lost shards)%s\n",
		m.Code, m.K, m.P, m.W, m.M, m.M, desc)
	fmt.Printf("layout:    %d stripes, %dB elements, %d shards\n", m.Stripes, m.ElemSize, m.NumShards())
	for i := 0; i < m.NumShards(); i++ {
		fmt.Printf("  %-16s crc32=%08x\n", m.ShardName(i), m.Checksums[i])
	}
	return nil
}

// printStats renders the -stats summary: one line per span with element
// operations, the XORs-per-unit rate (for the encode span, XORs per
// parity element, directly comparable to the paper's k-1 lower bound),
// and latency percentiles. A nil registry prints nothing.
func printStats(w io.Writer, reg *obs.Registry, k int) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Spans))
	for n := range snap.Spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "--- stats ---")
	for _, n := range names {
		st := snap.Spans[n]
		fmt.Fprintf(w, "%-18s calls=%d xors=%d copies=%d", n, st.Calls, st.XORs, st.Copies)
		if st.Units > 0 {
			fmt.Fprintf(w, " xors/unit=%.3f", st.XORsPerUnit)
			if strings.HasSuffix(n, ".encode") && k > 1 {
				fmt.Fprintf(w, " (lower bound k-1 = %d)", k-1)
			}
		}
		if st.Latency.Count > 0 {
			fmt.Fprintf(w, " p50=%s p99=%s", fmtSeconds(st.Latency.P50), fmtSeconds(st.Latency.P99))
		}
		if st.BytesPerSec > 0 {
			fmt.Fprintf(w, " %.1f MB/s", st.BytesPerSec/1e6)
		}
		fmt.Fprintln(w)
	}
}

// fmtSeconds renders a float64 second count as a duration string.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(100 * time.Nanosecond).String()
}

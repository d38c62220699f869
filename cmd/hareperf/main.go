// Command hareperf is the repo's benchmark harness: it runs `go test
// -bench`, parses the output into a schema-versioned archive stamped
// with an environment fingerprint, and compares archives against a
// checked-in baseline with per-metric noise thresholds and intra-run
// ratio gates (see internal/obs/perf and docs/PERFORMANCE.md).
//
//	hareperf run                          # gate suite -> bench/BENCH_*.json
//	hareperf run -bench . -benchtime 1s   # everything, slower
//	hareperf parse -in raw.txt -procs 8   # raw `go test -bench` text -> archive
//	hareperf compare -base bench/baseline.json -run
//	hareperf compare -base bench/baseline.json -cur bench/BENCH_x.json
//	hareperf env                          # print the fingerprint
//
// compare exits 0 when clean, 1 on a regression, 2 on any other error
// — the contract `make bench-compare` and CI rely on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hare/internal/obs/perf"
)

// gatePattern is the default -bench selection: the benchmarks the
// regression gate watches. Deliberately a subset — short enough for
// CI, covering the planner, both replay engines, the obs overhead
// pair, and the memory manager.
const gatePattern = "BenchmarkSimulatorReplay|BenchmarkPooledReplay|BenchmarkObs|BenchmarkHareSchedule|BenchmarkFluidRelaxation|BenchmarkHungarian|BenchmarkSwitchingCost|BenchmarkGPUMemManager"

// defaultRatios are the machine-independent gates: both sides run in
// the same process on the same hardware, so their quotient survives a
// CI runner swap that shifts every absolute number. The obs pair is
// the paper-repo's standing "observability is free when off" claim.
var defaultRatios = []perf.RatioGate{
	// The true obs-off ratio is ~1.0 and a broken nil path (an
	// allocation or emit per event) pushes it past 2, so the cap can
	// afford the headroom a busy shared runner needs.
	{
		Name: "obs-off-overhead", Metric: "ns/op",
		Num: "BenchmarkObsDisabled", Den: "BenchmarkSimulatorReplay",
		Threshold: 0.50, Max: 1.75,
	},
	{
		Name: "obs-ring-overhead", Metric: "ns/op",
		Num: "BenchmarkObsEnabledRing", Den: "BenchmarkSimulatorReplay",
		Threshold: 0.60, Max: 3.0,
	},
	// The control-plane RPC wrapper (rpcnet's per-call Start/Observe
	// around every coordinator/executor RPC) must stay near-free when
	// observation is off: the nil path is a couple of branch tests, so
	// it genuinely costs well under half of the fully-on path. A broken
	// nil path (a clock read or emit per call) lands near 1.0 and fails.
	{
		Name: "rpc-obs-off-overhead", Metric: "ns/op",
		Num: "BenchmarkObsRPCDisabled", Den: "BenchmarkObsRPCEnabledRing",
		Threshold: 0.60, Max: 0.5,
	},
	// Planner scaling: 4× the jobs on a fixed 250-GPU fleet. A fluid
	// relaxation that walks every job on every event makes Hare's
	// planner quadratic (t(4k)/t(1k) measured 14.8 on a 2-CPU Xeon
	// container); walking only running jobs keeps it near linear
	// (5.4 there). The cap sits between the two.
	{
		Name: "planner-scaling", Metric: "ns/op",
		Num: "BenchmarkHareScheduleScaling/4k", Den: "BenchmarkHareScheduleScaling/1k",
		Threshold: 0.50, Max: 9,
	},
}

// defaultAbs are absolute allocation caps. allocs/op is deterministic
// per build — no machine noise — so these hold the zero-alloc replay
// core to its contract even across baseline refreshes: a cold Run
// (state construction + result clone) stays bounded, and a pooled
// steady-state replay must stay allocation-free apart from the cloned
// Result handed back to the caller.
var defaultAbs = []perf.AbsGate{
	{Name: "replay-allocs", Bench: "BenchmarkSimulatorReplay", Metric: "allocs/op", Max: 1100},
	{Name: "pooled-replay-allocs", Bench: "BenchmarkPooledReplay", Metric: "allocs/op", Max: 64},
	// The observation-off RPC wrapper allocates nothing, ever: its nil
	// handles never touch the event or timer beyond stack values.
	{Name: "rpc-obs-nil-allocs", Bench: "BenchmarkObsRPCDisabled", Metric: "allocs/op", Max: 0},
	// A 4000-job plan allocates per job and per GPU class, never per
	// fluid event (~12600 today; the all-jobs planner with its rate
	// map per fluid event made ~487000).
	{Name: "planner-4k-allocs", Bench: "BenchmarkHareScheduleScaling/4k", Metric: "allocs/op", Max: 14000},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "parse":
		err = cmdParse(args)
	case "compare":
		os.Exit(cmdCompare(args))
	case "prune":
		err = cmdPrune(args)
	case "env":
		err = cmdEnv()
	default:
		fmt.Fprintf(os.Stderr, "hareperf: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hareperf:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hareperf <command>

commands:
  run [-bench RE] [-benchtime T] [-count N] [-pkg P] [-dir D]
          run the benchmarks and archive the results; prints the
          archive path on stdout (logs go to stderr)
  parse -in FILE [-procs N] [-out FILE]
          convert raw 'go test -bench' output into an archive
  compare -base FILE (-cur FILE | -run) [run flags]
          [-threshold F] [-agg min|median] [-no-ratios] [-no-abs]
          compare an archive against a baseline; exit 1 on regression
  prune [-dir D] [-keep N]
          delete old BENCH_*.json archives, keeping the newest N per
          commit (baseline.json is never touched)
  env     print the current environment fingerprint`)
}

// runFlags are the benchmark-invocation knobs shared by run and
// compare -run.
type runFlags struct {
	bench     *string
	benchtime *string
	count     *int
	pkg       *string
	dir       *string
}

func addRunFlags(fs *flag.FlagSet) runFlags {
	return runFlags{
		bench:     fs.String("bench", gatePattern, "benchmark selection regexp"),
		benchtime: fs.String("benchtime", "", "per-benchmark time or iteration budget (go test default when empty)"),
		count:     fs.Int("count", 5, "repetitions per benchmark (min/median is taken across them)"),
		pkg:       fs.String("pkg", ".", "package holding the benchmarks"),
		dir:       fs.String("dir", "bench", "archive directory"),
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	rf := addRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, _, err := runAndArchive(rf)
	if err != nil {
		return err
	}
	fmt.Println(path)
	return nil
}

// runAndArchive executes the benchmarks, archives the parsed results,
// and returns the archive path and contents.
func runAndArchive(rf runFlags) (string, *perf.Archive, error) {
	cmdArgs := []string{"test", "-run", "^$", "-bench", *rf.bench, "-benchmem", "-count", fmt.Sprint(*rf.count)}
	if *rf.benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", *rf.benchtime)
	}
	cmdArgs = append(cmdArgs, *rf.pkg)
	fmt.Fprintf(os.Stderr, "hareperf: go %s\n", strings.Join(cmdArgs, " "))
	cmd := exec.Command("go", cmdArgs...)
	var buf strings.Builder
	// Tee so progress is visible live and parseable afterwards.
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", nil, fmt.Errorf("go test -bench: %w", err)
	}
	a, err := parseIntoArchive(strings.NewReader(buf.String()), runtime.GOMAXPROCS(0))
	if err != nil {
		return "", nil, err
	}
	now := time.Now().UTC()
	a.Env = perf.Fingerprint(gitCommit(), now)
	if err := a.Validate(); err != nil {
		return "", nil, err
	}
	path := filepath.Join(*rf.dir, perf.ArchiveFilename(now, a.Env.Commit))
	if err := a.WriteFile(path); err != nil {
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "hareperf: archived %d benchmarks to %s\n", len(a.Benchmarks), path)
	return path, a, nil
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "raw 'go test -bench' output file (required)")
	procs := fs.Int("procs", runtime.GOMAXPROCS(0), "GOMAXPROCS the run used (resolves the -N name suffix)")
	out := fs.String("out", "", "archive destination (stdout when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("parse requires -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := parseIntoArchive(f, *procs)
	if err != nil {
		return err
	}
	a.Env = perf.Fingerprint(gitCommit(), time.Now().UTC())
	a.Env.GOMAXPROCS = *procs
	if err := a.Validate(); err != nil {
		return err
	}
	if *out == "" {
		return a.Write(os.Stdout)
	}
	return a.WriteFile(*out)
}

func parseIntoArchive(r io.Reader, procs int) (*perf.Archive, error) {
	bs, err := perf.Parse(r, procs)
	if err != nil {
		return nil, err
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	return &perf.Archive{Schema: perf.SchemaVersion, Benchmarks: bs}, nil
}

// cmdCompare returns the process exit code directly: 0 clean, 1
// regression, 2 error.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	base := fs.String("base", "bench/baseline.json", "baseline archive")
	cur := fs.String("cur", "", "current archive (mutually exclusive with -run)")
	doRun := fs.Bool("run", false, "run the benchmarks now and compare the fresh archive")
	// Wall time is scheduler- and machine-noise-prone, so its default
	// threshold is deliberately loose; allocation metrics are
	// deterministic per commit and get a tight one. The ratio gates
	// carry the fine-grained timing signal.
	threshold := fs.Float64("threshold", 1.0, "regression threshold for timing metrics (fraction)")
	memThreshold := fs.Float64("mem-threshold", 0.10, "regression threshold for B/op and allocs/op (fraction)")
	agg := fs.String("agg", "min", "aggregation across repetitions: min or median")
	noRatios := fs.Bool("no-ratios", false, "disable the intra-run ratio gates")
	noAbs := fs.Bool("no-abs", false, "disable the absolute allocation caps")
	rf := addRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "hareperf:", err)
		return 2
	}
	if (*cur == "") == !*doRun {
		return fail(fmt.Errorf("compare needs exactly one of -cur or -run"))
	}
	baseA, err := perf.ReadArchive(*base)
	if err != nil {
		return fail(fmt.Errorf("baseline: %w", err))
	}
	var curA *perf.Archive
	if *doRun {
		if _, curA, err = runAndArchive(rf); err != nil {
			return fail(err)
		}
	} else if curA, err = perf.ReadArchive(*cur); err != nil {
		return fail(fmt.Errorf("current: %w", err))
	}
	opts := perf.Options{
		DefaultThreshold: *threshold,
		Thresholds:       map[string]float64{"B/op": *memThreshold, "allocs/op": *memThreshold},
	}
	switch *agg {
	case "min":
		opts.Agg = perf.AggMin
	case "median":
		opts.Agg = perf.AggMedian
	default:
		return fail(fmt.Errorf("unknown -agg %q", *agg))
	}
	if !*noRatios {
		opts.Ratios = defaultRatios
	}
	if !*noAbs {
		opts.Abs = defaultAbs
	}
	rep := perf.Compare(baseA, curA, opts)
	rep.WriteTable(os.Stdout)
	if rep.Regressed() {
		fmt.Fprintf(os.Stderr, "hareperf: REGRESSION: %s\n", strings.Join(rep.Regressions(), "; "))
		return 1
	}
	fmt.Println("hareperf: no regressions")
	return 0
}

func cmdPrune(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	dir := fs.String("dir", "bench", "archive directory")
	keep := fs.Int("keep", 3, "archives to keep per commit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	deleted, err := perf.Prune(*dir, *keep)
	for _, p := range deleted {
		fmt.Fprintf(os.Stderr, "hareperf: pruned %s\n", p)
	}
	if err != nil {
		return err
	}
	fmt.Printf("hareperf: pruned %d archive(s) from %s (keeping %d per commit)\n", len(deleted), *dir, *keep)
	return nil
}

func cmdEnv() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(perf.Fingerprint(gitCommit(), time.Now().UTC()))
}

// gitCommit best-effort resolves the working tree's commit;
// Fingerprint turns "" into "unknown" (e.g. outside a checkout).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

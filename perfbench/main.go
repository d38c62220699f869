// Command perfbench is the repository's benchmark. It runs one workload
// (or all of them) for a fixed wall time, checks every output, and
// prints each metric with its unit and clock, ending with one JSON
// line:
//
//	go run . --workload plan-2k --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// wrappers and no registries. With --trace 1 it alternates untraced and
// traced iterations and reports the per-layer metrics, the layers'
// shares of the traced run and the tracing overhead. README.md says
// why each workload exists and which layer should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metricSpec struct {
	name, unit, clock, better string
}

// endToEnd are the metrics a user sees. failed_frac is printed in the
// table; the JSON carries its complement ok_frac, a metric that is
// never zero, next to the attempted and failed counts.
var endToEnd = []metricSpec{
	{"wall_s", "s", "wall", "lower"},
	{"setup_s", "s", "wall", "lower"},
	{"alloc_mb", "MB", "-", "lower"},
	{"wjct", "sim_s", "sim", "lower"},
	{"wjct_inflation", "ratio", "sim/sim", "lower"},
	{"ok_frac", "ratio", "-", "higher"},
}

var perLayer = func() []metricSpec {
	wall := func(name string) metricSpec { return metricSpec{name, "ms", "wall", "lower"} }
	count := func(name string) metricSpec { return metricSpec{name, "count", "-", "lower"} }
	specs := []metricSpec{
		wall("profile.build_ms"),
		wall("sched.plan_ms"), count("sched.calls"), {"sched.tasks", "count", "-", "higher"},
		wall("sched_relax.fluid_ms"), wall("sched.list_ms"),
		wall("core.validate_ms"), wall("core.sequences_ms"),
		wall("sim.replay_ms"), wall("sim.setup_ms"), wall("sim.event_loop_ms"), count("sim.heap_pops"),
		wall("critpath.attrib_ms"),
		wall("manager.plan_solve_ms"), wall("manager.backend_execute_ms"),
		wall("manager.plan_attribution_ms"), wall("manager.other_ms"),
	}
	for _, m := range rpcMethods {
		specs = append(specs, count("rpcnet.calls."+m))
	}
	return append(specs,
		metricSpec{"rpcnet.calls_per_task", "calls/task", "-", "lower"},
		wall("rpcnet.dispatch_gap_ms_p50"), wall("rpcnet.dispatch_gap_ms_p95"),
		count("store.wal_appends"), metricSpec{"store.wal_bytes", "bytes", "-", "lower"},
		wall("store.wal_append_ms_p50"), wall("store.wal_append_ms_p95"),
		count("store.snapshot_saves"), wall("store.snapshot_ms_p50"),
		count("store.ckpt_saves"), count("store.ckpt_loads"), wall("store.ckpt_ms_p50"),
		metricSpec{"testbed.train_inflation", "ratio", "wall/profile", "lower"},
		metricSpec{"testbed.switch_s_delta", "sim_s", "sim", "lower"},
		wall("run.wall_ms"), wall("run.traced_wall_ms"), wall("run.trace_overhead_ms"), wall("run.unaccounted_ms"),
	)
}()

// workDir holds the on-disk journals and stores of dist-batch, inside
// the checkout's build directory.
var workDir = filepath.Join(".bench_build", "work", fmt.Sprint(os.Getpid()))

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "plan-2k, sweep-paper, dist-batch, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 35, "wall seconds to measure per workload")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	heldout := flag.Bool("heldout", false, "run traced on a seed absent from golden.json and print layer shares")
	record := flag.String("record-golden", "", "write golden.json to this path and exit")
	flag.Parse()

	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	defer os.RemoveAll(workDir)
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		selected = []workload{w}
	}
	traced := *traceFlag == 1
	if *heldout {
		traced = true
	}
	fmt.Printf("perfbench: GOMAXPROCS=%d NumCPU=%d seconds=%g trace=%t\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *seconds, traced)

	out := jsonResult{Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		s := *seed
		if *heldout {
			s = heldoutSeed(golden, w.name, s)
			fmt.Printf("%s: held-out seed %d\n", w.name, s)
		}
		m := measure(w, s, *seconds, traced, golden)
		m.print(w.name, traced)
		out.Attempted += m.attempted
		out.Failed += m.failed
		specs, values := endToEnd, m.e2e
		if traced {
			specs, values = perLayer, m.layers
		}
		for _, spec := range specs {
			key := spec.name
			if len(selected) > 1 {
				key = w.name + "/" + key
			}
			v := values[spec.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m.errs = append(m.errs, spec.name+" is not finite")
				out.Failed++
				v = -1
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: spec.unit}
		}
		for _, e := range m.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, e)
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// heldoutSeed returns seed, or the first seed after it, that the golden
// table does not record for the workload.
func heldoutSeed(g goldenTable, workload string, seed int64) int64 {
	for {
		if _, ok := g.lookup(workload, seed); !ok {
			return seed
		}
		seed += 1 << 20
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type measurement struct {
	attempted, failed int
	errs              []string
	e2e, layers       map[string]float64
	walls             []float64 // untraced run wall seconds, in order
	tracedIters       int
	// shareMS and parentMS total the traced iterations' self times per
	// layer and their parent wall times.
	shareMS  map[string]float64
	parentMS float64
}

func (m *measurement) fail(jobs int, err error) {
	m.failed += jobs
	m.errs = append(m.errs, err.Error())
}

// measure runs iterations of w until seconds have passed (at least one
// untraced iteration, and one traced one when traced) and reduces them
// to medians. Each iteration sets up afresh; set-up, run and checks
// are timed apart, and the heap is collected before each run.
func measure(w workload, seed int64, seconds float64, traced bool, g goldenTable) measurement {
	m := measurement{shareMS: map[string]float64{}}
	var setups, walls, allocs, wjcts, inflations []float64
	layerSamples := map[string][]float64{}
	var ref *result
	minIters := 1
	if traced {
		minIters = 2
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := startStopwatch()
	for i := 0; i < minIters || start.elapsed() < budget; i++ {
		doTrace := traced && i%2 == 1
		m.attempted += w.jobs
		t0 := startStopwatch()
		it, err := w.setup(seed, doTrace)
		setupS := t0.elapsed().Seconds()
		if err != nil {
			m.fail(w.jobs, fmt.Errorf("setup: %w", err))
			continue
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tr *tracer
		if doTrace {
			tr = newTracer()
		}
		t1 := startStopwatch()
		end := tr.begin("run")
		err = it.run(tr)
		end()
		wall := t1.elapsed()
		runtime.ReadMemStats(&after)
		if err != nil {
			it.close()
			m.fail(w.jobs, fmt.Errorf("run: %w", err))
			continue
		}
		res, err := it.verify(ref)
		if err == nil && w.deterministic {
			err = g.check(w.name, seed, res)
		}
		switch {
		case err != nil:
			m.fail(w.jobs, fmt.Errorf("check: %w", err))
		case res.notDone > 0:
			m.fail(res.notDone, fmt.Errorf("%d jobs not DONE", res.notDone))
		case ref == nil:
			ref = &res
		}
		if doTrace {
			if err == nil {
				self := tr.selfMS()
				l := it.layers(self)
				l["profile.build_ms"] = setupS * 1e3
				l["run.traced_wall_ms"] = ms(wall)
				l["run.unaccounted_ms"] = self["run"]
				//lint:ordered each key appends to its own sample list
				for k, v := range l {
					layerSamples[k] = append(layerSamples[k], v)
				}
				//lint:ordered each key adds to its own total
				for k, v := range self {
					m.shareMS[k] += v
				}
				m.parentMS += tr.rootMS()
			}
		} else {
			setups = append(setups, setupS)
			walls = append(walls, wall.Seconds())
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			if err == nil {
				wjcts = append(wjcts, res.wjct)
				inflations = append(inflations, res.inflation)
			}
		}
		it.close()
	}
	m.walls = walls
	okFrac := 1 - float64(m.failed)/float64(m.attempted)
	m.e2e = map[string]float64{
		"wall_s": median(walls), "setup_s": median(setups), "alloc_mb": median(allocs),
		"wjct": median(wjcts), "wjct_inflation": median(inflations),
		"ok_frac": okFrac, "failed_frac": 1 - okFrac,
	}
	m.layers = map[string]float64{}
	for _, spec := range perLayer {
		m.layers[spec.name] = median(layerSamples[spec.name])
	}
	m.layers["run.wall_ms"] = median(walls) * 1e3
	m.layers["run.trace_overhead_ms"] = m.layers["run.traced_wall_ms"] - m.layers["run.wall_ms"]
	m.tracedIters = len(layerSamples["run.traced_wall_ms"])
	return m
}

// print writes the human-readable table: every metric with its unit
// and clock, and for traced runs each layer's share of the parent.
func (m measurement) print(workload string, traced bool) {
	row := func(s metricSpec, v float64) {
		fmt.Printf("%-12s %-30s %16.6f %-10s %s\n", workload, s.name, v, s.unit, s.clock)
	}
	fmt.Printf("%-12s %-30s %16s %-10s %s\n", "workload", "metric", "value", "unit", "clock")
	if !traced {
		for _, s := range endToEnd {
			row(s, m.e2e[s.name])
		}
		row(metricSpec{"failed_frac", "ratio", "-", "lower"}, m.e2e["failed_frac"])
		fmt.Printf("%-12s wall_s per iteration: %.4f\n", workload, m.walls)
		return
	}
	for _, s := range perLayer {
		row(s, m.layers[s.name])
	}
	fmt.Printf("%-12s %d untraced and %d traced iterations\n", workload, len(m.walls), m.tracedIters)
	fmt.Printf("%-12s layer self times over all traced iterations (wall ms; sum = parent)\n", workload)
	layers := make([]string, 0, len(m.shareMS))
	var sum float64
	//lint:ordered sum is printed to 3 decimals; layers are sorted below
	for l, v := range m.shareMS {
		layers = append(layers, l)
		sum += v
	}
	sort.Slice(layers, func(i, j int) bool { return m.shareMS[layers[i]] > m.shareMS[layers[j]] })
	for _, l := range layers {
		name := l
		if l == "run" {
			name = "run.unaccounted"
		}
		fmt.Printf("%-12s   %-28s %14.3f ms %6.2f%%\n", workload, name, m.shareMS[l], 100*m.shareMS[l]/m.parentMS)
	}
	fmt.Printf("%-12s   %-28s %14.3f ms (parent %.3f ms)\n", workload, "sum", sum, m.parentMS)
}

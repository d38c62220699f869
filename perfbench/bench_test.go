package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/store"
	"hare/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {95, 3.85}, {100, 4},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
}

// Three tasks on two GPUs at timescale 1e-3 (1 sim s = 1 wall ms):
// job 0 runs round 0 on GPU 0 over [0, 2] and round 1 on GPU 1, whose
// 0.5 s switch stall runs over [2.5, 3]; job 1 arrives at 1 and queues
// behind job 0 on GPU 0, starting at 2.25.
func TestDispatchGapThreeTasks(t *testing.T) {
	in := &core.Instance{NumGPUs: 2, Jobs: []*core.Job{
		{ID: 0, Arrival: 0, Rounds: 2, Scale: 1},
		{ID: 1, Arrival: 1, Rounds: 1, Scale: 1},
	}}
	recs := []trace.TaskRecord{
		{Task: core.TaskRef{Job: 0, Round: 1}, GPU: 1, Start: 3, Train: 1, Switch: 0.5},
		{Task: core.TaskRef{Job: 1, Round: 0}, GPU: 0, Start: 2.25, Train: 1},
		{Task: core.TaskRef{Job: 0, Round: 0}, GPU: 0, Start: 0, Train: 2},
	}
	got := dispatchGapsMS(in, recs, 1e-3)
	// In (GPU, start) order: the first task is runnable at arrival (gap
	// 0); job 1 waits for GPU 0 to free at 2 (gap 0.25); round 1 waits
	// for the round-0 barrier at 2 and its switch ends at 2.5 (gap 0.5).
	want := []float64{0, 0.25, 0.5}
	if len(got) != len(want) {
		t.Fatalf("got %d gaps, want %d", len(got), len(want))
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("gap %d = %g ms, want %g ms", i, got[i], want[i])
		}
	}
}

type fakeAlgorithm struct{}

func (fakeAlgorithm) Name() string { return "fake" }

func (fakeAlgorithm) Schedule(*core.Instance) (*core.Schedule, error) { return core.NewSchedule(), nil }

type fakeBackend struct{}

func (fakeBackend) Execute(*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) ([]float64, *trace.Trace, error) {
	return nil, &trace.Trace{}, nil
}

func TestWrapperCounts(t *testing.T) {
	tr := newTracer()
	in := &core.Instance{NumGPUs: 1, Jobs: []*core.Job{{Rounds: 3, Scale: 2}}}
	alg := &timedAlgorithm{Algorithm: fakeAlgorithm{}, tr: tr}
	for i := 0; i < 2; i++ {
		if _, err := alg.Schedule(in); err != nil {
			t.Fatal(err)
		}
	}
	if d, tasks := alg.plans.snapshot(); len(d) != 2 || tasks != 12 {
		t.Errorf("algorithm: %d calls, %d tasks; want 2 calls, 12 tasks", len(d), tasks)
	}
	if l := planLayers(alg); l["sched.calls"] != 2 || l["sched.tasks"] != 12 {
		t.Errorf("planLayers = %v", l)
	}
	back := &timedBackend{Backend: fakeBackend{}, tr: tr}
	if _, _, err := back.Execute(in, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := back.runs.snapshot(); len(d) != 1 {
		t.Errorf("backend: %d calls, want 1", len(d))
	}
	if got := len(tr.spans); got != 3 {
		t.Errorf("wrappers opened %d spans, want 3", got)
	}

	log := &timedLog{Log: store.NewMemLog()}
	for i := 0; i < 3; i++ {
		if err := log.Append([]byte("12345")); err != nil {
			t.Fatal(err)
		}
	}
	if d, bytes := log.appends.snapshot(); len(d) != 3 || bytes != 15 {
		t.Errorf("log: %d appends, %d bytes; want 3, 15", len(d), bytes)
	}
	st := &timedStore{Store: store.NewMem()}
	for _, k := range []string{"a", "b"} {
		if err := st.Save(k, []byte("xy")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	saves, _ := st.saves.snapshot()
	loads, _ := st.loads.snapshot()
	if len(saves) != 2 || len(loads) != 1 {
		t.Errorf("store: %d saves, %d loads; want 2, 1", len(saves), len(loads))
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	endRoot := tr.begin("run")
	endA := tr.begin("a")
	tr.begin("b")()
	endA()
	tr.begin("a")()
	endRoot()
	var sum float64
	//lint:ordered the sum is compared with a tolerance
	for _, v := range tr.selfMS() {
		sum += v
	}
	if math.Abs(sum-tr.rootMS()) > 1e-9 {
		t.Errorf("self times sum to %g ms, root spans %g ms", sum, tr.rootMS())
	}
}

func TestPlanDigest(t *testing.T) {
	in := &core.Instance{NumGPUs: 2, Jobs: []*core.Job{{Rounds: 1, Scale: 2}}}
	a, b := core.NewSchedule(), core.NewSchedule()
	for _, s := range []*core.Schedule{a, b} {
		s.Place(core.TaskRef{Index: 0}, 0, 0)
		s.Place(core.TaskRef{Index: 1}, 1, 0)
	}
	da, err := planDigest(in, a)
	if err != nil {
		t.Fatal(err)
	}
	if db, _ := planDigest(in, b); db != da {
		t.Error("equal plans have different digests")
	}
	b.Place(core.TaskRef{Index: 1}, 1, 1e-9)
	if db, _ := planDigest(in, b); db == da {
		t.Error("plans differing in one start share a digest")
	}
	if _, err := planDigest(in, core.NewSchedule()); err == nil {
		t.Error("digest of an incomplete plan did not fail")
	}
}

// The golden table covers every seed it is meant to, holds all sweep
// rows, and rejects a result that differs in one row value only.
func TestGoldenChecksSweepRows(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.deterministic && len(g[w.name]) != goldenSeeds {
			t.Errorf("%s: golden.json records %d seeds, want %d", w.name, len(g[w.name]), goldenSeeds)
		}
	}
	e, ok := g.lookup("sweep-paper", 0)
	if !ok || len(e.Rows) != len(sweepCounts)*5 {
		t.Fatalf("sweep-paper seed 0: %d golden rows, want %d", len(e.Rows), len(sweepCounts)*5)
	}
	var digest uint64
	if _, err := fmt.Sscanf(e.Digest, "%x", &digest); err != nil {
		t.Fatal(err)
	}
	r := result{wjct: e.WJCT, digest: digest, rows: append([]float64(nil), e.Rows...)}
	if err := g.check("sweep-paper", 0, r); err != nil {
		t.Fatalf("golden result rejected: %v", err)
	}
	r.rows[len(r.rows)-1] *= 1 + 1e-15
	if err := g.check("sweep-paper", 0, r); err == nil {
		t.Error("a result differing in one baseline row passed the golden check")
	}
	if err := g.check("sweep-paper", 0, result{wjct: e.WJCT, digest: digest}); err == nil {
		t.Error("a result without rows passed the golden check")
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in program", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		prog []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.prog {
			if f := c.file[i]; f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in program", i, f, m)
			}
		}
	}
}

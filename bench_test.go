package hare

// One benchmark per paper table/figure (see DESIGN.md's experiment
// index) plus micro-benchmarks of the core machinery. The benchmarks
// run scaled-down configurations so `go test -bench=.` completes on a
// laptop; cmd/harebench runs the full-size experiments and prints the
// paper-shaped rows. Where a figure has a headline comparison, the
// benchmark reports it as a custom metric (e.g. Hare's weighted JCT
// as a fraction of the best baseline's).

import (
	"math"
	"testing"

	"hare/internal/assign"
	"hare/internal/cluster"
	"hare/internal/experiments"
	"hare/internal/gpumem"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/sched/relax"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/switching"
	"hare/internal/tenants"
)

// benchCfg is the scaled-down experiment configuration shared by the
// figure benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:           42,
		RoundsScale:    0.1,
		Jobs:           40,
		GPUs:           24,
		HorizonSeconds: 300,
		WithSwitching:  true,
		Speculative:    true,
	}
}

// reportHareVsBest attaches Hare's weighted JCT relative to the best
// baseline as a benchmark metric.
func reportHareVsBest(b *testing.B, rows []experiments.SweepRow) {
	b.Helper()
	var ratioSum float64
	var n int
	for _, row := range rows {
		var hare, best float64
		best = math.Inf(1)
		for _, r := range row.Results {
			if r.Scheme == "Hare" {
				hare = r.WeightedJCT
			} else if r.WeightedJCT < best {
				best = r.WeightedJCT
			}
		}
		if best > 0 && !math.IsInf(best, 1) {
			ratioSum += hare / best
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(ratioSum/float64(n), "hare/best-baseline")
	}
}

func BenchmarkFig1Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig1Toy()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig2Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig2Speedups(); len(rows) != 8 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig3Util(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig3Util(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig5EpochTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig5EpochTime(); len(rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig6Util(b *testing.B) {
	cfg := experiments.Config{RoundsScale: 0.2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6Util(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SwitchRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig7SwitchRatio(); len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig8SwitchingUtil(b *testing.B) {
	cfg := experiments.Config{RoundsScale: 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8SwitchingUtil(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Stability(b *testing.B) {
	cfg := experiments.Config{RoundsScale: 0.2}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11Stability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkTable3Switching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3Switching()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig12Testbed(b *testing.B) {
	cfg := benchCfg()
	cfg.RoundsScale = 0.05
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12Testbed(cfg, experiments.Fig12Options{
			Jobs: 10, TimeScale: 5e-4, TestbedSchemes: []string{"Hare"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig13CDF(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13CDF(cfg, 16)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig14GPUSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14GPUSweep(cfg, []int{16, 24})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

// BenchmarkFig14GPUSweepParallel runs the same sweep with the worker
// pool sized to the machine; compare its ns/op against
// BenchmarkFig14GPUSweep for the parallel engine's speedup (the rows
// are identical — TestParallelMatchesSerialFig14 pins that).
func BenchmarkFig14GPUSweepParallel(b *testing.B) {
	cfg := benchCfg()
	cfg.Parallel = -1 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14GPUSweep(cfg, []int{16, 24})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig15JobSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15JobSweep(cfg, []int{24, 48})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig16Heterogeneity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16Heterogeneity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig17JobMix(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rowsByClass, err := experiments.Fig17JobMix(cfg, []float64{0.25, 0.55})
		if err != nil {
			b.Fatal(err)
		}
		if len(rowsByClass) != 4 {
			b.Fatal("unexpected class count")
		}
	}
}

func BenchmarkFig18Bandwidth(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18Bandwidth(cfg, []float64{10, 25})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig19BatchSize(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig19BatchSize(cfg, []float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkAblationEFT(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEFT(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSync(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSync(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOnline(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOnline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpeculativeMemory(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSpeculativeMemory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMemoryPolicy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMemoryPolicy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtendedBaselines(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtendedBaselines(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFairnessComparison(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FairnessComparison(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core machinery ---

func benchInstance(jobs, gpus int, seed int64) *Instance {
	cl := HeterogeneousCluster(HighHeterogeneity, gpus)
	_, in, _, err := BuildWorkload(WorkloadConfig{
		Jobs: jobs, Seed: seed, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		panic(err)
	}
	return in
}

func BenchmarkHareSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewHare()
	b.ReportMetric(float64(in.NumTasks()), "tasks")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHareScheduleScaling grows the job count 4× on a fixed
// 250-GPU high-heterogeneity fleet. hareperf gates t(4k)/t(1k): a
// planner whose fluid relaxation walks every job on every event is
// quadratic (14.8 on a 2-CPU Xeon container); one whose cost follows
// the running jobs stays near linear (5.4 there).
func BenchmarkHareScheduleScaling(b *testing.B) {
	for _, c := range []struct {
		name string
		jobs int
	}{{"1k", 1000}, {"4k", 4000}} {
		b.Run(c.name, func(b *testing.B) {
			in := benchInstance(c.jobs, 250, 5)
			algo := sched.NewHare()
			b.ReportMetric(float64(in.NumTasks()), "tasks")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algo.Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFluidRelaxation(b *testing.B) {
	in := benchInstance(60, 24, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relax.Fluid(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlloxSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewSchedAllox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorReplay(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in, plan, cl, models, sim.Options{
			Scheme: switching.Hare, Speculative: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorReplayReference replays the same plan with the
// original O(tasks·GPUs) rescan loop; the gap to
// BenchmarkSimulatorReplay is what the incremental candidate engine
// buys (docs/PERFORMANCE.md records the numbers).
func BenchmarkSimulatorReplayReference(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunReference(in, plan, cl, models, sim.Options{
			Scheme: switching.Hare, Speculative: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPooledReplay measures the steady state of a reused
// Simulator on BenchmarkSimulatorReplay's workload: after the first
// run grows the arenas, replays recycle every buffer and the returned
// Result, so allocs/op must stay near zero (hareperf's
// pooled-replay-allocs cap holds it there absolutely).
func BenchmarkPooledReplay(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	s := sim.NewSimulator()
	if _, err := s.Run(in, plan, cl, models, opts); err != nil {
		b.Fatal(err) // warm the arenas outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(in, plan, cl, models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedBenchTrace builds the multi-tenant trace the sharded-replay
// benchmarks share: 8 independent tenants, so Options.Parallel can
// fan the replay across up to 8 workers.
func shardedBenchTrace(b *testing.B) *tenants.Trace {
	b.Helper()
	tr, err := tenants.Build(tenants.Config{
		Tenants: 8, JobsPerTenant: 20, GPUsPerTenant: 8,
		RoundsScale: 0.2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkShardedReplay replays the multi-tenant trace with
// component sharding across GOMAXPROCS workers; against
// BenchmarkShardedReplaySerial it reports the wall-clock speedup
// sharding buys (≥2x expected at GOMAXPROCS ≥ 4; identical results
// are pinned by TestShardedMatchesSerial).
func BenchmarkShardedReplay(b *testing.B) {
	tr := shardedBenchTrace(b)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Parallel: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedReplaySerial is the serial control for
// BenchmarkShardedReplay: same trace, same pooled engine, no
// sharding.
func BenchmarkShardedReplaySerial(b *testing.B) {
	tr := shardedBenchTrace(b)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// obsBenchSetup builds the workload and plan shared by the obs
// overhead benchmarks, matching BenchmarkSimulatorReplay.
func obsBenchSetup(b *testing.B) (*Instance, *Schedule, *Cluster, []*Model) {
	b.Helper()
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	return in, plan, cl, models
}

// BenchmarkObsDisabled replays the instrumented simulator path with a
// nil recorder — the acceptance bar is that it stays within noise
// (≤2%) of BenchmarkSimulatorReplay, the uninstrumented baseline, so
// observability hooks cost nothing when nobody listens.
func BenchmarkObsDisabled(b *testing.B) {
	in, plan, cl, models := obsBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in, plan, cl, models, SimOptions{
			Scheme: switching.Hare, Speculative: true,
			Recorder: nil, Metrics: nil,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabledRing measures the same replay with full event
// emission into a ring sink plus live counters — the hared
// steady-state configuration.
func BenchmarkObsEnabledRing(b *testing.B) {
	in, plan, cl, models := obsBenchSetup(b)
	ring := NewRingSink(4096)
	reg := NewMetricsRegistry()
	rec := NewRecorder(ring)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in, plan, cl, models, SimOptions{
			Scheme: switching.Hare, Speculative: true,
			Recorder: rec, Metrics: reg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsRPCDisabled pins the cost of the control-plane RPC
// instrumentation when nobody listens: a nil RPCObserver hands out nil
// method handles, so the per-call wrapper rpcnet wraps around every
// coordinator/executor RPC must add no clock reads and no allocations.
// The loop mirrors the executor's call path — Active gate, Start,
// call body, Observe — with a xorshift standing in for the RPC.
func BenchmarkObsRPCDisabled(b *testing.B) {
	m := obs.NewRPCObserver(nil, nil, "client").Method("Coordinator.Push")
	var calls uint64
	sink := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var call uint64
		if m.Active() {
			calls++
			call = calls
		}
		t := m.Start(0)
		sink ^= sink << 13
		sink ^= sink >> 7
		sink ^= sink << 17
		m.Observe(t, 0, obs.Event{GPU: 0, Call: call}, nil)
	}
	if sink == 0 {
		b.Fatal("xorshift collapsed")
	}
}

// BenchmarkObsRPCEnabledRing measures the same wrapper fully on: event
// emission into a ring sink plus the per-method counter and histogram
// series — the hared steady-state configuration of the distributed
// control plane.
func BenchmarkObsRPCEnabledRing(b *testing.B) {
	ring := obs.NewRingSink(4096)
	reg := obs.NewRegistry()
	m := obs.NewRPCObserver(obs.NewRecorder(ring), reg, "client").Method("Coordinator.Push")
	var calls uint64
	sink := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var call uint64
		if m.Active() {
			calls++
			call = calls
		}
		t := m.Start(0)
		sink ^= sink << 13
		sink ^= sink >> 7
		sink ^= sink << 17
		m.Observe(t, 0, obs.Event{GPU: 0, Call: call}, nil)
	}
	if sink == 0 {
		b.Fatal("xorshift collapsed")
	}
}

func BenchmarkHungarian(b *testing.B) {
	rng := stats.New(9)
	const n, m = 60, 120
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = rng.Uniform(0, 100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineHareSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewOnlineHare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiresiasLASSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewTiresiasLAS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineStall(b *testing.B) {
	zoo := ModelZoo()
	var sink float64
	for i := 0; i < b.N; i++ {
		m := zoo[i%len(zoo)]
		plan, err := switching.PipelineStall(m, cluster.V100, m.BatchSeconds(cluster.V100.Speed, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += plan.Stall
	}
	_ = sink
}

func BenchmarkManagerBatch(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 12)
	for i := 0; i < b.N; i++ {
		m := manager.New(cl, manager.Options{Backend: &manager.SimBackend{Seed: int64(i)}})
		for j := 0; j < 20; j++ {
			if _, err := m.Submit(manager.JobRequest{
				Model: "ResNet50", Rounds: 5, Scale: 2, Weight: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.ExecuteBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPUMemManager(b *testing.B) {
	zoo := ModelZoo()
	mem := gpumem.NewManager(16 << 30)
	look := make([]gpumem.JobKey, 64)
	for i := range look {
		look[i] = gpumem.JobKey(i % 6)
	}
	mem.SetLookahead(look)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zoo[i%len(zoo)]
		k := gpumem.JobKey(i % 6)
		mem.Begin(k, m.TrainFootprintBytes)
		mem.Complete(k, m.ParamBytes, float64(i))
	}
}

func BenchmarkSwitchingCost(b *testing.B) {
	zoo := ModelZoo()
	var sink float64
	for i := 0; i < b.N; i++ {
		prev := zoo[i%len(zoo)]
		next := zoo[(i+1)%len(zoo)]
		sink += switching.Cost(switching.Hare, cluster.V100, prev, next, i%2 == 0).Total()
	}
	_ = sink
}

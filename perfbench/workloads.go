package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hare"
	"hare/internal/core"
	"hare/internal/experiments"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/obs/perf"
	"hare/internal/rpcnet"
	"hare/internal/sched/relax"
	"hare/internal/sim"
	"hare/internal/store"
)

// iteration is one set-up instance of a workload. run is the measured
// work; with a non-nil tracer it also records spans and feeds
// registries and timing wrappers. verify checks the outputs of the run
// against ref, the first iteration's outputs in this process (nil on
// the first iteration).
type iteration interface {
	run(tr *tracer) error
	verify(ref *result) (result, error)
	// layers derives the per-layer metrics of a traced run from the
	// tracer's self times; call it after verify.
	layers(self map[string]float64) map[string]float64
	close()
}

// result is what the output checks compare across iterations and
// against the golden table.
type result struct {
	wjct      float64 // simulated seconds
	inflation float64 // realized WJCT / simulator WJCT for the same plan
	digest    uint64
	notDone   int       // jobs that did not reach DONE
	rows      []float64 // every scheduler's WJCT per sweep row
}

type workload struct {
	name string
	// jobs counts the operations one iteration attempts.
	jobs int
	// deterministic workloads must repeat their outputs exactly and
	// match the golden table.
	deterministic bool
	setup         func(seed int64, traced bool) (iteration, error)
}

var workloads = []workload{
	{name: "plan-2k", jobs: planJobs, deterministic: true, setup: setupPlan},
	{name: "sweep-paper", jobs: sweepJobs * 5, deterministic: true, setup: setupSweep}, // five schedulers
	{name: "dist-batch", jobs: distJobs, setup: setupDist},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// hareSim replays Hare plans the way the paper's experiments do: Hare's
// fast task switching with speculative memory.
var hareSim = hare.SimOptions{Scheme: hare.SwitchHare, Speculative: true}

// --- plan-2k -------------------------------------------------------

const (
	planJobs        = 2000
	planGPUs        = 1000
	planRoundsScale = 0.2
	planHorizon     = 300
)

type planIter struct {
	cl     *hare.Cluster
	in     *hare.Instance
	models []*hare.Model
	plan   *hare.Schedule
	res    *hare.SimResult
	attrib float64 // critpath's replay WJCT

	alg *timedAlgorithm
	reg *obs.Registry
}

func setupPlan(seed int64, _ bool) (iteration, error) {
	cl := hare.HeterogeneousCluster(hare.HighHeterogeneity, planGPUs)
	_, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: planJobs, Seed: seed, HorizonSeconds: planHorizon, RoundsScale: planRoundsScale,
	}, cl)
	if err != nil {
		return nil, err
	}
	return &planIter{cl: cl, in: in, models: models}, nil
}

func (p *planIter) run(tr *tracer) error {
	alg := hare.NewScheduler()
	opts := hareSim
	if tr != nil {
		p.alg = &timedAlgorithm{Algorithm: alg, tr: tr}
		alg = p.alg
		p.reg = obs.NewRegistry()
		opts.Metrics, opts.Phases = p.reg, perf.NewPhaseRecorder(p.reg)
	}
	plan, err := alg.Schedule(p.in)
	if err != nil {
		return err
	}
	p.plan = plan
	end := tr.begin("core.validate")
	err = hare.Validate(p.in, plan)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("sim.replay")
	p.res, err = hare.Simulate(p.in, plan, p.cl, p.models, opts)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("critpath.attrib")
	_, rep, err := hare.PlanAttribution(p.in, plan, p.cl, p.models, hareSim)
	end()
	if err != nil {
		return err
	}
	p.attrib = rep.WeightedJCT
	return nil
}

func (p *planIter) verify(ref *result) (result, error) {
	r := result{wjct: p.res.WeightedJCT, inflation: 1}
	var err error
	if r.digest, err = planDigest(p.in, p.plan); err != nil {
		return r, err
	}
	// The attribution replay is a second simulator engine over the
	// same plan; the two agree to 1e-9.
	if math.Abs(p.attrib-r.wjct) > 1e-9*r.wjct {
		return r, fmt.Errorf("attribution WJCT %.17g != simulator WJCT %.17g", p.attrib, r.wjct)
	}
	return r, sameOutputs(r, ref)
}

func (p *planIter) layers(self map[string]float64) map[string]float64 {
	l := planLayers(p.alg)
	l["core.validate_ms"] = self["core.validate"]
	l["critpath.attrib_ms"] = self["critpath.attrib"]
	l["sim.replay_ms"] = self["sim.replay"]
	simLayers(l, p.reg)
	probe(l, "sched_relax.fluid_ms", func() error { _, err := relax.Fluid(p.in); return err })
	probe(l, "core.sequences_ms", func() error { p.plan.Sequences(p.in.NumGPUs); return nil })
	l["sched.list_ms"] = l["sched.plan_ms"] - l["sched_relax.fluid_ms"]
	return l
}

func (p *planIter) close() {}

// planLayers reports the wrapped scheduler's time, calls and tasks.
func planLayers(algs ...*timedAlgorithm) map[string]float64 {
	l := make(map[string]float64)
	for _, a := range algs {
		d, tasks := a.plans.snapshot()
		for _, x := range d {
			l["sched.plan_ms"] += x
		}
		l["sched.calls"] += float64(len(d))
		l["sched.tasks"] += float64(tasks)
	}
	return l
}

// simLayers reads the simulator's own phase timers and heap counters.
func simLayers(l map[string]float64, reg *obs.Registry) {
	l["sim.setup_ms"] = phaseMS(reg, "sim_setup")
	l["sim.event_loop_ms"] = phaseMS(reg, "sim_event_loop")
	l["sim.heap_pops"] = counter(reg, "hare_sim_heap_pops_total")
}

// probe adds the wall ms of f, timed alone outside the run's parent
// span, to l[name]. It re-times a call the run already made
// successfully on the same inputs, so a failure is a defect and panics.
func probe(l map[string]float64, name string, f func() error) {
	start := startStopwatch()
	if err := f(); err != nil {
		panic(fmt.Sprintf("probe %s: %v", name, err))
	}
	l[name] += ms(start.elapsed())
}

func sameOutputs(r result, ref *result) error {
	if ref == nil {
		return nil
	}
	//lint:allow floateq outputs of a deterministic workload repeat bit for bit
	if r.wjct != ref.wjct || r.digest != ref.digest {
		return fmt.Errorf("outputs changed between iterations: WJCT %.17g digest %016x, first %.17g %016x",
			r.wjct, r.digest, ref.wjct, ref.digest)
	}
	for i := range r.rows {
		//lint:allow floateq outputs of a deterministic workload repeat bit for bit
		if i >= len(ref.rows) || r.rows[i] != ref.rows[i] {
			return fmt.Errorf("sweep row value %d changed between iterations", i)
		}
	}
	return nil
}

// --- sweep-paper ---------------------------------------------------

// sweepCounts are Fig. 15's job counts; sweepJobs is their sum.
var sweepCounts = []int{100, 150, 200, 250, 300}

const sweepJobs = 100 + 150 + 200 + 250 + 300

// sweepConfig is harebench's configuration for "-experiment fig15
// -scale 1", run serially.
func sweepConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, RoundsScale: 1, WithSwitching: true, Speculative: true, Parallel: 1}
}

type sweepInst struct {
	in     *hare.Instance
	models []*hare.Model
}

type sweepIter struct {
	cfg, def experiments.Config
	cl       *hare.Cluster
	insts    []sweepInst
	rows     []float64 // WJCT per (row, scheduler), row-major
	hareSum  float64

	algs  []*timedAlgorithm
	plans []*hare.Schedule // traced: every plan, row-major
	reg   *obs.Registry
}

func setupSweep(seed int64, _ bool) (iteration, error) {
	s := &sweepIter{cfg: sweepConfig(seed)}
	s.def = s.cfg.Defaults()
	s.cl = hare.HeterogeneousCluster(hare.HighHeterogeneity, s.def.GPUs)
	for _, n := range sweepCounts {
		in, models, err := s.build(n)
		if err != nil {
			return nil, err
		}
		s.insts = append(s.insts, sweepInst{in, models})
	}
	return s, nil
}

// build generates and profiles one sweep point exactly as the sweep
// does internally.
func (s *sweepIter) build(n int) (*hare.Instance, []*hare.Model, error) {
	_, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: n, Seed: s.def.Seed, HorizonSeconds: s.def.HorizonSeconds, RoundsScale: s.def.RoundsScale,
	}, s.cl)
	return in, models, err
}

// replayOpts mirrors the sweep's per-scheduler replay options: Hare
// variants pay Hare's switching, the baselines the default scheme.
func (s *sweepIter) replayOpts(scheme string) hare.SimOptions {
	o := hare.SimOptions{Scheme: hare.SwitchDefault, Seed: s.def.Seed + 7}
	if strings.HasPrefix(scheme, "Hare") {
		o.Scheme, o.Speculative = hare.SwitchHare, s.def.Speculative
	}
	return o
}

func (s *sweepIter) run(tr *tracer) error {
	if tr == nil {
		rows, err := experiments.Fig15JobSweep(s.cfg, sweepCounts)
		if err != nil {
			return err
		}
		s.rows, s.hareSum = s.rows[:0], 0
		for _, row := range rows {
			for _, r := range row.Results {
				s.rows = append(s.rows, r.WeightedJCT)
				if r.Scheme == "Hare" {
					s.hareSum += r.WeightedJCT
				}
			}
		}
		return nil
	}
	// Traced: the same calls the sweep makes, each in a span, with the
	// simulator's registry attached. verify checks the outputs equal
	// the sweep's.
	s.reg = obs.NewRegistry()
	phases := perf.NewPhaseRecorder(s.reg)
	s.rows, s.hareSum, s.algs, s.plans = nil, 0, nil, nil
	for _, a := range hare.Schedulers() {
		s.algs = append(s.algs, &timedAlgorithm{Algorithm: a, tr: tr})
	}
	for _, n := range sweepCounts {
		end := tr.begin("profile.build")
		in, models, err := s.build(n)
		end()
		if err != nil {
			return err
		}
		for _, a := range s.algs {
			plan, err := a.Schedule(in)
			if err != nil {
				return err
			}
			s.plans = append(s.plans, plan)
			opts := s.replayOpts(a.Name())
			opts.Metrics, opts.Phases = s.reg, phases
			end := tr.begin("sim.replay")
			res, err := sim.Run(in, plan, s.cl, models, opts)
			end()
			if err != nil {
				return err
			}
			s.rows = append(s.rows, res.WeightedJCT)
			if a.Name() == "Hare" {
				s.hareSum += res.WeightedJCT
			}
		}
	}
	return nil
}

func (s *sweepIter) verify(ref *result) (result, error) {
	r := result{wjct: s.hareSum, inflation: 1, rows: s.rows}
	if len(s.rows) != len(sweepCounts)*len(hare.Schedulers()) {
		return r, fmt.Errorf("sweep returned %d values, want %d", len(s.rows), len(sweepCounts)*len(hare.Schedulers()))
	}
	if ref != nil {
		r.digest = ref.digest
		return r, sameOutputs(r, ref)
	}
	// First iteration: plan every point with Hare outside the sweep,
	// validate, digest and replay each plan, and require the replays
	// to add up to the sweep's Hare rows bit for bit.
	h := uint64(14695981039346656037)
	var sum float64
	for _, si := range s.insts {
		plan, err := hare.NewScheduler().Schedule(si.in)
		if err != nil {
			return r, err
		}
		if err := hare.Validate(si.in, plan); err != nil {
			return r, err
		}
		d, err := planDigest(si.in, plan)
		if err != nil {
			return r, err
		}
		h = (h ^ d) * 1099511628211
		res, err := hare.Simulate(si.in, plan, s.cl, si.models, s.replayOpts("Hare"))
		if err != nil {
			return r, err
		}
		sum += res.WeightedJCT
	}
	r.digest = h
	//lint:allow floateq the same plans replayed with the same options repeat bit for bit
	if sum != s.hareSum {
		return r, fmt.Errorf("sweep Hare WJCT %.17g != independent plan+replay %.17g", s.hareSum, sum)
	}
	return r, nil
}

func (s *sweepIter) layers(self map[string]float64) map[string]float64 {
	l := planLayers(s.algs...)
	l["sim.replay_ms"] = self["sim.replay"]
	simLayers(l, s.reg)
	k := len(s.algs)
	for i, si := range s.insts {
		probe(l, "sched_relax.fluid_ms", func() error { _, err := relax.Fluid(si.in); return err })
		for _, plan := range s.plans[i*k : (i+1)*k] {
			probe(l, "core.validate_ms", func() error { return core.ValidateSchedule(si.in, plan) })
			probe(l, "core.sequences_ms", func() error { plan.Sequences(si.in.NumGPUs); return nil })
		}
	}
	l["sched.list_ms"] = l["sched.plan_ms"] - l["sched_relax.fluid_ms"]
	return l
}

func (s *sweepIter) close() {}

// --- dist-batch ----------------------------------------------------

const (
	distGPUs      = 4
	distJobs      = 16
	distRounds    = 8
	distTimeScale = 1e-3
)

// distRequests is the client's job list: job i trains zoo model i mod 8
// at scale 1 + i mod 3, and the seed shuffles the submission order. The
// jobs are the same for every seed, so seeds differ in plan order and
// tie-breaks rather than in total work.
func distRequests(seed int64) []manager.JobRequest {
	zoo := hare.ModelZoo()
	reqs := make([]manager.JobRequest, distJobs)
	for i := range reqs {
		reqs[i] = manager.JobRequest{Model: zoo[i%len(zoo)].Name, Rounds: distRounds, Scale: 1 + i%3}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

type distIter struct {
	dir     string
	cl      *hare.Cluster
	reqs    []manager.JobRequest
	journal *rpcnet.Journal
	mgr     *manager.Manager
	batch   *manager.BatchResult
	replay  *replayBackend

	// Traced runs only.
	reg   *obs.Registry
	alg   *timedAlgorithm
	back  *timedBackend
	wal   *timedLog
	snaps *timedStore
	ckpts *timedStore
}

// setupDist generates the requests and opens a fresh on-disk journal
// and checkpoint store, wrapped in timing wrappers when traced.
func setupDist(seed int64, traced bool) (iteration, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "dist-")
	if err != nil {
		return nil, err
	}
	d := &distIter{
		dir:  dir,
		cl:   hare.HeterogeneousCluster(hare.HighHeterogeneity, distGPUs),
		reqs: distRequests(seed),
	}
	walDir := filepath.Join(d.dir, "wal")
	ckpt, err := store.NewDir(filepath.Join(d.dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	var ckptStore store.Store = ckpt
	if !traced {
		if d.journal, err = rpcnet.OpenDirJournal(walDir); err != nil {
			return nil, err
		}
	} else {
		snaps, err := store.NewDir(walDir)
		if err != nil {
			return nil, err
		}
		log, err := store.OpenDirLog(filepath.Join(walDir, "wal.log"))
		if err != nil {
			return nil, err
		}
		d.wal, d.snaps, d.ckpts = &timedLog{Log: log}, &timedStore{Store: snaps}, &timedStore{Store: ckpt}
		d.journal, ckptStore = rpcnet.NewJournal(d.snaps, d.wal), d.ckpts
		d.reg = obs.NewRegistry()
	}
	var back manager.Backend = &manager.DistributedBackend{
		TimeScale: distTimeScale, Journal: d.journal, Store: ckptStore, Metrics: d.reg,
	}
	opts := manager.Options{Backend: back, Metrics: d.reg}
	if traced {
		d.alg = &timedAlgorithm{Algorithm: hare.NewScheduler()}
		d.back = &timedBackend{Backend: back}
		opts.Algorithm, opts.Backend = d.alg, d.back
	}
	d.mgr = manager.New(d.cl, opts)
	return d, nil
}

func (d *distIter) run(tr *tracer) error {
	if d.alg != nil {
		d.alg.tr, d.back.tr = tr, tr
	}
	end := tr.begin("client.submit")
	for _, r := range d.reqs {
		if _, err := d.mgr.Submit(r); err != nil {
			end()
			return err
		}
	}
	end()
	end = tr.begin("manager.execute_batch")
	var err error
	d.batch, err = d.mgr.ExecuteBatch()
	end()
	return err
}

func (d *distIter) verify(_ *result) (result, error) {
	var r result
	for _, st := range d.mgr.Statuses() {
		if st.State != manager.StateDone {
			r.notDone++
		}
	}
	if err := d.journal.Close(); err != nil {
		return r, fmt.Errorf("close journal: %w", err)
	}
	d.journal = nil
	dump, err := rpcnet.InspectDir(filepath.Join(d.dir, "wal"))
	if err != nil {
		return r, err
	}
	if len(dump.Gaps) > 0 || dump.Truncated > 0 {
		return r, fmt.Errorf("journal: %d LSN gaps, %d truncated records", len(dump.Gaps), dump.Truncated)
	}
	if d.batch == nil {
		return r, fmt.Errorf("batch ran no jobs")
	}

	// Replay the same plan on the simulator with the options the
	// distributed executors run with (the default switching scheme,
	// no speculative memory): a fresh manager given the same requests
	// profiles and plans them identically.
	d.replay = &replayBackend{}
	if d.reg != nil {
		d.replay.opts.Metrics, d.replay.opts.Phases = d.reg, perf.NewPhaseRecorder(d.reg)
	}
	m := manager.New(d.cl, manager.Options{Backend: d.replay})
	for _, req := range d.reqs {
		if _, err := m.Submit(req); err != nil {
			return r, err
		}
	}
	if _, err := m.ExecuteBatch(); err != nil {
		return r, fmt.Errorf("simulator replay: %w", err)
	}
	in, plan := d.replay.in, d.replay.plan
	if err := hare.Validate(in, plan); err != nil {
		return r, err
	}
	if r.digest, err = planDigest(in, plan); err != nil {
		return r, err
	}
	if d.alg != nil {
		got, err := planDigest(d.alg.lastIn, d.alg.lastPlan)
		if err != nil {
			return r, err
		}
		if got != r.digest {
			return r, fmt.Errorf("replayed plan %016x differs from the executed plan %016x", r.digest, got)
		}
	}
	recs := d.batch.Trace.Records
	if len(recs) != in.NumTasks() {
		return r, fmt.Errorf("trace holds %d records for %d tasks", len(recs), in.NumTasks())
	}
	tasks, ps, err := placements(in, plan)
	if err != nil {
		return r, err
	}
	gpu := make(map[core.TaskRef]int, len(tasks))
	for i, t := range tasks {
		gpu[t] = ps[i].GPU
	}
	for _, rec := range recs {
		if g, ok := gpu[rec.Task]; !ok || g != rec.GPU {
			return r, fmt.Errorf("task %v ran on GPU %d, planned %d", rec.Task, rec.GPU, g)
		}
	}
	r.wjct = d.batch.WeightedJCT
	r.inflation = r.wjct / d.replay.res.WeightedJCT
	return r, nil
}

func (d *distIter) layers(self map[string]float64) map[string]float64 {
	l := planLayers(d.alg)
	in, plan := d.replay.in, d.replay.plan
	probe(l, "sched_relax.fluid_ms", func() error { _, err := relax.Fluid(in); return err })
	probe(l, "core.validate_ms", func() error { return core.ValidateSchedule(in, plan) })
	probe(l, "core.sequences_ms", func() error { plan.Sequences(in.NumGPUs); return nil })
	l["sched.list_ms"] = l["sched.plan_ms"] - l["sched_relax.fluid_ms"]
	l["sim.replay_ms"] = d.replay.runs.totalMS()
	simLayers(l, d.reg)

	// Manager phases from its own timers. The replay manager has no
	// registry, so these are the executed batch's alone.
	solve, exec, attrib := phaseMS(d.reg, "plan_solve"), phaseMS(d.reg, "backend_execute"), phaseMS(d.reg, "plan_attribution")
	l["manager.plan_solve_ms"] = solve
	l["manager.backend_execute_ms"] = exec
	l["manager.plan_attribution_ms"] = attrib
	l["manager.other_ms"] = self["manager.execute_batch"] + self["sched.plan"] + self["manager.backend_execute"] - solve - exec - attrib
	l["critpath.attrib_ms"] = attrib

	var calls float64
	for _, m := range rpcMethods {
		c := counter(d.reg, `hare_rpc_client_calls_total{method="`+m+`"}`)
		l["rpcnet.calls."+m] = c
		calls += c
	}
	l["rpcnet.calls_per_task"] = calls / float64(in.NumTasks())
	gaps := dispatchGapsMS(in, d.batch.Trace.Records, distTimeScale)
	l["rpcnet.dispatch_gap_ms_p50"] = percentile(gaps, 50)
	l["rpcnet.dispatch_gap_ms_p95"] = percentile(gaps, 95)

	appends, walBytes := d.wal.appends.snapshot()
	l["store.wal_appends"] = float64(len(appends))
	l["store.wal_bytes"] = float64(walBytes)
	l["store.wal_append_ms_p50"] = percentile(appends, 50)
	l["store.wal_append_ms_p95"] = percentile(appends, 95)
	snaps, _ := d.snaps.saves.snapshot()
	l["store.snapshot_saves"] = float64(len(snaps))
	l["store.snapshot_ms_p50"] = percentile(snaps, 50)
	saves, _ := d.ckpts.saves.snapshot()
	loads, _ := d.ckpts.loads.snapshot()
	l["store.ckpt_saves"] = float64(len(saves))
	l["store.ckpt_loads"] = float64(len(loads))
	l["store.ckpt_ms_p50"] = percentile(append(saves, loads...), 50)

	var train, profiled, sw float64
	for _, rec := range d.batch.Trace.Records {
		train += rec.Train
		profiled += in.Train[rec.Task.Job][rec.GPU]
		sw += rec.Switch
	}
	l["testbed.train_inflation"] = train / profiled
	l["testbed.switch_s_delta"] = sw - d.replay.res.TotalSwitch
	return l
}

func (d *distIter) close() {
	if d.journal != nil {
		_ = d.journal.Close() // a run that failed early; nothing to flush
	}
	_ = os.RemoveAll(d.dir) // scratch space under the work directory
}

// rpcMethods are the coordinator's RPC methods, as its client-side
// metrics label them.
var rpcMethods = []string{"Config", "Heartbeat", "Next", "Push", "WaitRound", "LoadCheckpoint", "Report"}

// replayBackend executes a batch on the simulator and keeps the
// instance, plan and result it was handed.
type replayBackend struct {
	opts hare.SimOptions
	runs calls
	in   *hare.Instance
	plan *hare.Schedule
	res  *hare.SimResult
}

func (b *replayBackend) Execute(in *core.Instance, plan *core.Schedule, cl *hare.Cluster, models []*hare.Model) ([]float64, *hare.Trace, error) {
	start := startStopwatch()
	res, err := sim.Run(in, plan, cl, models, b.opts)
	b.runs.observe(start, 0)
	if err != nil {
		return nil, nil, err
	}
	b.in, b.plan, b.res = in, plan, res
	return res.JobCompletion, res.Trace, nil
}

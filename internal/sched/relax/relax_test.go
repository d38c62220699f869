package relax

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

func singleJobInstance(rounds, scale, gpus int, train, sync float64) *core.Instance {
	in := &core.Instance{NumGPUs: gpus}
	in.Jobs = []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: rounds, Scale: scale}}
	tr := make([]float64, gpus)
	sy := make([]float64, gpus)
	for m := range tr {
		tr[m], sy[m] = train, sync
	}
	in.Train = [][]float64{tr}
	in.Sync = [][]float64{sy}
	return in
}

func TestFluidSingleJobFullParallel(t *testing.T) {
	// 2 rounds x 2 tasks on 4 GPUs: each round runs at full rate
	// (work 2·τ at rate 2 = τ), plus sync, so completion = 2(τ+σ).
	in := singleJobInstance(2, 2, 4, 3, 1)
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (3 + 1.0); math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
	if sol.RoundStart[0][0] != 0 {
		t.Errorf("round 0 starts at %g", sol.RoundStart[0][0])
	}
	if want := 3 + 1.0; math.Abs(sol.RoundStart[0][1]-want) > 1e-9 {
		t.Errorf("round 1 starts at %g, want %g", sol.RoundStart[0][1], want)
	}
}

func TestFluidCapacityBound(t *testing.T) {
	// Scale 4 on 2 GPUs: round work 4·τ at rate 2 takes 2τ.
	in := singleJobInstance(1, 4, 2, 5, 0)
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0; math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
}

func TestFluidRespectsArrival(t *testing.T) {
	in := singleJobInstance(1, 1, 1, 2, 0)
	in.Jobs[0].Arrival = 7
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.RoundStart[0][0] < 7 {
		t.Errorf("round started at %g before arrival 7", sol.RoundStart[0][0])
	}
	if want := 9.0; math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
}

func TestFluidPriorityByDensity(t *testing.T) {
	// Two identical-length jobs, one with far higher weight, sharing
	// one GPU of capacity: the heavy job's fluid completion must come
	// first.
	in := &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "light", Weight: 1, Rounds: 1, Scale: 1},
			{ID: 1, Name: "heavy", Weight: 10, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{4}, {4}},
		Sync:  [][]float64{{0}, {0}},
	}
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Completion[1] >= sol.Completion[0] {
		t.Errorf("heavy job finished at %g, light at %g", sol.Completion[1], sol.Completion[0])
	}
}

func TestFluidObjectiveLowerBoundsExact(t *testing.T) {
	rng := stats.New(31)
	violations := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		in := randomTiny(rng.Split())
		fl, err := Fluid(in)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exact(in, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Optimal {
			t.Fatal("exact search exhausted budget")
		}
		if fl.Objective > ex.Objective+1e-6 {
			violations++
		}
	}
	// The fluid bound is heuristic (priority sharing, not the LP
	// optimum); it may exceed the optimum only rarely.
	if violations > trials/5 {
		t.Errorf("fluid exceeded the exact optimum on %d/%d instances", violations, trials)
	}
}

func TestExactFeasibleAndOptimalOrdering(t *testing.T) {
	rng := stats.New(37)
	for trial := 0; trial < 40; trial++ {
		in := randomTiny(rng.Split())
		res, err := Exact(in, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil {
			t.Fatal("no schedule returned")
		}
		if err := core.ValidateSchedule(in, res.Schedule); err != nil {
			t.Fatalf("trial %d: exact schedule infeasible: %v", trial, err)
		}
		if w := res.Schedule.WeightedJCT(in); math.Abs(w-res.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %g but schedule scores %g", trial, res.Objective, w)
		}
	}
}

func TestExactBeatsGreedyOnAdversarialCase(t *testing.T) {
	// One heavy short job arriving just after a light long job: the
	// optimum delays the long job.
	in := &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "long", Weight: 1, Rounds: 1, Scale: 1, Arrival: 0},
			{ID: 1, Name: "short", Weight: 100, Rounds: 1, Scale: 1, Arrival: 1},
		},
		Train: [][]float64{{10}, {2}},
		Sync:  [][]float64{{0}, {0}},
	}
	res, err := Exact(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: idle until 1, run short (C=3, w=100), then long
	// (C=13): 300 + 13 = 313. Greedy long-first would score
	// 1·10 + 100·12 = 1210.
	if math.Abs(res.Objective-313) > 1e-6 {
		t.Errorf("objective %g, want 313", res.Objective)
	}
}

func TestHMonotoneInRounds(t *testing.T) {
	rng := stats.New(41)
	for trial := 0; trial < 20; trial++ {
		in := randomTiny(rng.Split())
		sol, err := Fluid(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range in.Jobs {
			for r := 1; r < j.Rounds; r++ {
				if sol.H(j.ID, r) < sol.H(j.ID, r-1) {
					t.Fatalf("H not monotone for job %d round %d", j.ID, r)
				}
			}
		}
	}
}

func randomTiny(rng *stats.RNG) *core.Instance {
	nm := 2 + rng.Intn(2)
	in := &core.Instance{NumGPUs: nm}
	budget := 5
	j := 0
	for budget > 0 {
		scale := 1 + rng.Intn(2)
		rounds := 1 + rng.Intn(2)
		if scale*rounds > budget {
			scale, rounds = 1, 1
		}
		budget -= scale * rounds
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(j), Name: "t", Weight: rng.Uniform(0.5, 3),
			Arrival: rng.Uniform(0, 3), Rounds: rounds, Scale: scale,
		})
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		base := rng.Uniform(1, 5)
		for m := 0; m < nm; m++ {
			tr[m] = base * rng.Uniform(1, 3)
			sy[m] = base * rng.Uniform(0, 0.4)
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
		j++
	}
	return in
}

// phase tracks a fluidReference job's progress.
type phase int

const (
	phaseWaiting phase = iota // not yet arrived
	phaseCompute              // current round consuming capacity
	phaseSync                 // current round synchronizing (no capacity)
	phaseDone
)

// fluidRefJob is fluidReference's per-job state.
type fluidRefJob struct {
	job     *core.Job
	tau     float64 // min_m T^c — fastest per-task training time
	sigma   float64 // min_m T^s — fastest sync time
	density float64 // WSPT priority w / total fastest work

	state        phase
	round        int
	workLeft     float64 // remaining compute work of the round, in GPU·seconds
	syncLeft     float64
	roundStarted bool
}

// fluidReference is the all-jobs fluid solver Fluid replaced, kept
// verbatim: every event walks all jobs three times and allocates a
// rate map. Fluid must reproduce it bit for bit.
func fluidReference(in *core.Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	jobs := make([]*fluidRefJob, n)
	for i, j := range in.Jobs {
		tau, sigma := math.Inf(1), math.Inf(1)
		for m := 0; m < in.NumGPUs; m++ {
			tau = math.Min(tau, in.Train[j.ID][m])
			sigma = math.Min(sigma, in.Sync[j.ID][m])
		}
		total := float64(j.Rounds) * (float64(j.Scale)*tau + sigma)
		jobs[i] = &fluidRefJob{
			job:     j,
			tau:     tau,
			sigma:   sigma,
			density: j.Weight / total,
			state:   phaseWaiting,
		}
	}

	sol := &Solution{
		RoundStart: make([][]float64, n),
		Completion: make([]float64, n),
	}
	for i, j := range in.Jobs {
		sol.RoundStart[i] = make([]float64, j.Rounds)
		for r := range sol.RoundStart[i] {
			sol.RoundStart[i][r] = math.Inf(1)
		}
	}

	// Priority order is static: WSPT density descending, ties by
	// arrival then ID for determinism.
	prio := make([]*fluidRefJob, n)
	copy(prio, jobs)
	sort.Slice(prio, func(a, b int) bool {
		if prio[a].density != prio[b].density {
			return prio[a].density > prio[b].density
		}
		if prio[a].job.Arrival != prio[b].job.Arrival {
			return prio[a].job.Arrival < prio[b].job.Arrival
		}
		return prio[a].job.ID < prio[b].job.ID
	})

	arrivals := make([]float64, 0, n)
	for _, j := range in.Jobs {
		arrivals = append(arrivals, j.Arrival)
	}
	sort.Float64s(arrivals)
	nextArrival := 0

	const eps = 1e-12
	t := 0.0
	capTotal := float64(in.NumGPUs)
	// Each event either consumes an arrival or finishes a job phase,
	// so the loop is bounded by arrivals + jobs × rounds × 2 events.
	maxEvents := n + 2
	for _, j := range in.Jobs {
		maxEvents += 2*j.Rounds + 2
	}

	for ev := 0; ev < maxEvents; ev++ {
		// Admit arrivals at the current time.
		for nextArrival < n && arrivals[nextArrival] <= t+eps {
			nextArrival++
		}
		for _, fj := range jobs {
			if fj.state == phaseWaiting && fj.job.Arrival <= t+eps {
				fj.state = phaseCompute
				fj.round = 0
				fj.workLeft = float64(fj.job.Scale) * fj.tau
				fj.roundStarted = false
			}
		}

		// Allocate capacity by priority.
		rates := make(map[core.JobID]float64)
		capLeft := capTotal
		for _, fj := range prio {
			if fj.state != phaseCompute || capLeft <= eps {
				continue
			}
			r := math.Min(float64(fj.job.Scale), capLeft)
			rates[fj.job.ID] = r
			capLeft -= r
			if !fj.roundStarted && r > eps {
				fj.roundStarted = true
				sol.RoundStart[fj.job.ID][fj.round] = t
			}
		}

		// Find the next event horizon.
		dt := math.Inf(1)
		for _, fj := range jobs {
			switch fj.state {
			case phaseCompute:
				if r := rates[fj.job.ID]; r > eps {
					dt = math.Min(dt, fj.workLeft/r)
				}
			case phaseSync:
				dt = math.Min(dt, fj.syncLeft)
			}
		}
		if nextArrival < n {
			dt = math.Min(dt, arrivals[nextArrival]-t)
		}
		if math.IsInf(dt, 1) {
			break // nothing active and no arrivals left: done
		}
		if dt < 0 {
			dt = 0
		}

		// Advance.
		t += dt
		for _, fj := range jobs {
			switch fj.state {
			case phaseCompute:
				if r := rates[fj.job.ID]; r > eps {
					fj.workLeft -= r * dt
					if fj.workLeft <= eps {
						fj.workLeft = 0
						fj.syncLeft = fj.sigma
						fj.state = phaseSync
					}
				}
			case phaseSync:
				fj.syncLeft -= dt
				if fj.syncLeft > eps {
					continue
				}
				fj.syncLeft = 0
				fj.round++
				if fj.round >= fj.job.Rounds {
					fj.state = phaseDone
					sol.Completion[fj.job.ID] = t
				} else {
					fj.state = phaseCompute
					fj.workLeft = float64(fj.job.Scale) * fj.tau
					fj.roundStarted = false
				}
			}
		}
	}

	for _, fj := range jobs {
		if fj.state != phaseDone {
			return nil, fmt.Errorf("relax: fluid simulation did not finish job %d (state %d)", fj.job.ID, fj.state)
		}
	}
	for j := range sol.RoundStart {
		for r, x := range sol.RoundStart[j] {
			if math.IsInf(x, 1) {
				return nil, fmt.Errorf("relax: round %d of job %d never started in fluid schedule", r, j)
			}
		}
	}
	for i, j := range in.Jobs {
		sol.Objective += j.Weight * sol.Completion[i]
	}
	return sol, nil
}

// fluidCase builds a random instance biased toward the solver's edge
// cases. Each kind stresses one of them; every instance also mixes in
// the others at random.
//
//	0: simultaneous arrivals (a handful of shared arrival times)
//	1: equal WSPT densities (cloned jobs, ties broken by arrival/ID)
//	2: zero sync time
//	3: capacity used up exactly (integer scales summing to the fleet
//	   size partway down the priority list)
func fluidCase(rng *stats.RNG, kind int) *core.Instance {
	nm := 1 + rng.Intn(8)
	nj := 1 + rng.Intn(24)
	in := &core.Instance{NumGPUs: nm}
	shared := []float64{0, rng.Uniform(0, 5), rng.Uniform(5, 10)}
	zeroSync := kind == 2 || rng.Intn(4) == 0
	for j := 0; j < nj; j++ {
		if j > 0 && (kind == 1 || rng.Intn(5) == 0) && rng.Intn(2) == 0 {
			// Clone an earlier job: same weight and work, so the same
			// density; possibly the same arrival too.
			src := rng.Intn(j)
			job := *in.Jobs[src]
			job.ID = core.JobID(j)
			if rng.Intn(2) == 0 {
				job.Arrival = shared[rng.Intn(len(shared))]
			}
			in.Jobs = append(in.Jobs, &job)
			in.Train = append(in.Train, append([]float64(nil), in.Train[src]...))
			in.Sync = append(in.Sync, append([]float64(nil), in.Sync[src]...))
			continue
		}
		arrival := rng.Uniform(0, 10)
		if kind == 0 || rng.Intn(3) == 0 {
			arrival = shared[rng.Intn(len(shared))]
		}
		scale := 1 + rng.Intn(nm)
		if kind == 3 {
			// Scales that tile the fleet: capLeft reaches exactly 0
			// with compute-phase jobs still below it in priority.
			scale = 1 + rng.Intn(1+nm/2)
		}
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(j), Name: "f", Weight: float64(1 + rng.Intn(4)),
			Arrival: arrival, Rounds: 1 + rng.Intn(4), Scale: scale,
		})
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		base := float64(1 + rng.Intn(6))
		for m := 0; m < nm; m++ {
			tr[m] = base * float64(1+rng.Intn(3))
			if !zeroSync {
				sy[m] = base * rng.Uniform(0, 0.5)
			}
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return in
}

func TestFluidMatchesReference(t *testing.T) {
	rng := stats.New(12)
	for trial := 0; trial < 400; trial++ {
		in := fluidCase(rng.Split(), trial%4)
		want, werr := fluidReference(in)
		got, gerr := Fluid(in)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: error mismatch: reference %v, Fluid %v", trial, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got.Objective != want.Objective {
			t.Fatalf("trial %d: objective %.17g, reference %.17g", trial, got.Objective, want.Objective)
		}
		for j := range want.Completion {
			if got.Completion[j] != want.Completion[j] {
				t.Fatalf("trial %d: job %d completion %.17g, reference %.17g", trial, j, got.Completion[j], want.Completion[j])
			}
			for r := range want.RoundStart[j] {
				if got.RoundStart[j][r] != want.RoundStart[j][r] {
					t.Fatalf("trial %d: job %d round %d start %.17g, reference %.17g",
						trial, j, r, got.RoundStart[j][r], want.RoundStart[j][r])
				}
			}
		}
	}
}

func TestHReadsPrecomputedMax(t *testing.T) {
	rng := stats.New(13)
	for trial := 0; trial < 50; trial++ {
		in := fluidCase(rng.Split(), trial%4)
		sol, err := Fluid(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range in.Jobs {
			var tmax float64
			for m := 0; m < in.NumGPUs; m++ {
				tmax = math.Max(tmax, in.Train[j.ID][m])
			}
			for r := 0; r < j.Rounds; r++ {
				if got, want := sol.H(j.ID, r), sol.RoundStart[j.ID][r]+0.5*tmax; got != want {
					t.Fatalf("H(%d, %d) = %.17g, want %.17g", j.ID, r, got, want)
				}
			}
		}
	}
}

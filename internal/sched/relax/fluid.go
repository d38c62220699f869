// Package relax provides solutions to relaxations of the paper's
// Hare_Sched problem. The paper solves the mixed-integer quadratic
// relaxation Hare_Sched_RL with a commercial solver (CPLEX/Gurobi);
// stdlib-only, this package substitutes:
//
//   - Fluid: a fast deterministic fluid (processor-sharing) relaxation
//     that honors arrivals (4), round barriers (7) and the capacity
//     aggregate behind Queyranne's inequality (9), and yields the
//     relaxed start times x̂_i that Algorithm 1 consumes through the
//     middle-completion-time ordering H_i = x̂_i + ½·max_m T^c_{i,m}.
//   - Exact: a branch-and-bound solver for tiny instances, used by
//     tests to verify that the fluid objective lower-bounds the true
//     optimum in practice and that Algorithm 1 stays within its
//     α(2+α) approximation bound.
package relax

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"hare/internal/core"
)

// Solution is a relaxed schedule: per-(job, round) fluid start times
// and fluid job completions.
type Solution struct {
	// RoundStart[j][r] is x̂ for every task of round r of job j: the
	// moment fluid capacity first flows into the round.
	RoundStart [][]float64
	// Completion[j] is the job's fluid completion time C^fluid_n.
	Completion []float64
	// Objective is Σ w_n · C^fluid_n, a practical lower-bound signal
	// for the true optimum.
	Objective float64

	// tmax[j] is max_m T^c_{j,m}, folded with max from 0.
	tmax []float64
}

// H returns the middle completion time of a task of round r of job j:
// H_i = x̂_i + ½·max_m T^c_{i,m} (the paper takes the maximum over
// machines of H_{i,m}). The maximum is computed once per job by
// Fluid, so H is O(1).
func (s *Solution) H(j core.JobID, r int) float64 {
	return s.RoundStart[j][r] + 0.5*s.tmax[j]
}

type fluidJob struct {
	scale   float64 // Scale, the job's rate cap
	tau     float64 // min_m T^c — fastest per-task training time
	sigma   float64 // min_m T^s — fastest sync time
	density float64 // WSPT priority w / total fastest work

	workLeft float64 // remaining compute work of the round, in GPU·seconds
	syncLeft float64
	rounds   int32
	round    int32 // current round; == rounds once the job is done
	rank     int32 // position in the static WSPT priority order

	roundStarted bool
}

// Fluid solves the fluid relaxation. The cluster is abstracted as a
// malleable machine of capacity |M| GPU-equivalents; each job's round
// requires Scale·τ_n GPU·seconds of work at a rate capped by Scale
// (intra-job parallelism cannot exceed the synchronization scale), and
// is followed by σ_n of synchronization. Capacity is allocated
// preemptively by weighted-shortest-processing-time density, the
// optimal single-machine fluid policy. Round starts are recorded when
// capacity first flows into a round, matching the role x̂ plays in
// Algorithm 1.
//
// The event loop only touches running jobs. Compute-phase jobs sit in
// a bitset indexed by WSPT rank, so allocation walks them in priority
// order and stops once capacity runs out; syncing jobs sit in their
// own list; arrivals are admitted from an arrival-sorted cursor. The
// horizon and the advance step visit just the jobs that received
// capacity plus the syncing ones, so an event costs O(running jobs)
// and allocates nothing. Every per-job update is the same float
// operation the all-jobs formulation performs, and minima are
// order-independent, so the result does not depend on visit order.
// The builtin min and max equal math.Min and math.Max whenever no
// operand is NaN, which Validate rules out.
func Fluid(in *core.Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	jobs := make([]fluidJob, n)
	sol := &Solution{
		RoundStart: make([][]float64, n),
		Completion: make([]float64, n),
		tmax:       make([]float64, n),
	}
	for i, j := range in.Jobs {
		tau, sigma := math.Inf(1), math.Inf(1)
		var tmax float64
		for m := 0; m < in.NumGPUs; m++ {
			tau = min(tau, in.Train[j.ID][m])
			sigma = min(sigma, in.Sync[j.ID][m])
			tmax = max(tmax, in.Train[j.ID][m])
		}
		total := float64(j.Rounds) * (float64(j.Scale)*tau + sigma)
		jobs[i] = fluidJob{
			scale:   float64(j.Scale),
			tau:     tau,
			sigma:   sigma,
			density: j.Weight / total,
			rounds:  int32(j.Rounds),
		}
		sol.tmax[i] = tmax
		sol.RoundStart[i] = make([]float64, j.Rounds)
		for r := range sol.RoundStart[i] {
			sol.RoundStart[i][r] = math.Inf(1)
		}
	}

	// Priority order is static: WSPT density descending, ties by
	// arrival then ID for determinism. prio maps rank to job.
	prio := make([]int32, n)
	for i := range prio {
		prio[i] = int32(i)
	}
	sort.Slice(prio, func(a, b int) bool {
		fa, fb := &jobs[prio[a]], &jobs[prio[b]]
		if fa.density != fb.density {
			return fa.density > fb.density
		}
		ja, jb := in.Jobs[prio[a]], in.Jobs[prio[b]]
		if ja.Arrival != jb.Arrival {
			return ja.Arrival < jb.Arrival
		}
		return ja.ID < jb.ID
	})
	for r, k := range prio {
		jobs[k].rank = int32(r)
	}

	byArrival := make([]int32, n)
	for i := range byArrival {
		byArrival[i] = int32(i)
	}
	sort.SliceStable(byArrival, func(a, b int) bool {
		return in.Jobs[byArrival[a]].Arrival < in.Jobs[byArrival[b]].Arrival
	})
	nextArrival := 0

	computing := make([]uint64, (n+63)/64) // bit r: job prio[r] is in its compute phase
	syncing := make([]int32, 0, n)
	alloc := make([]int32, 0, n)   // jobs that received capacity this event
	rates := make([]float64, 0, n) // rates[i] is alloc[i]'s rate

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
		for nextArrival < n && in.Jobs[byArrival[nextArrival]].Arrival <= t+eps {
			fj := &jobs[byArrival[nextArrival]]
			nextArrival++
			fj.workLeft = fj.scale * fj.tau
			computing[fj.rank/64] |= 1 << (fj.rank % 64)
		}

		// Allocate capacity by priority. Capacity only shrinks, so the
		// walk ends at the first job that finds it used up. A granted
		// rate is min(Scale ≥ 1, capLeft > eps), hence always > eps:
		// capacity flows into the round.
		alloc, rates = alloc[:0], rates[:0]
		capLeft := capTotal
	allocate:
		for w, word := range computing {
			for word != 0 {
				if capLeft <= eps {
					break allocate
				}
				k := prio[w*64+bits.TrailingZeros64(word)]
				word &= word - 1
				fj := &jobs[k]
				r := min(fj.scale, capLeft)
				alloc, rates = append(alloc, k), append(rates, r)
				capLeft -= r
				if !fj.roundStarted {
					fj.roundStarted = true
					sol.RoundStart[k][fj.round] = t
				}
			}
		}

		// Find the next event horizon.
		dt := math.Inf(1)
		for i, k := range alloc {
			dt = min(dt, jobs[k].workLeft/rates[i])
		}
		for _, k := range syncing {
			dt = min(dt, jobs[k].syncLeft)
		}
		if nextArrival < n {
			dt = min(dt, in.Jobs[byArrival[nextArrival]].Arrival-t)
		}
		if math.IsInf(dt, 1) {
			break // nothing active and no arrivals left: done
		}
		if dt < 0 {
			dt = 0
		}

		// Advance. Syncing jobs go first so a job that enters sync in
		// this event is not also drained by it.
		t += dt
		still := syncing[:0]
		for _, k := range syncing {
			fj := &jobs[k]
			fj.syncLeft -= dt
			if fj.syncLeft > eps {
				still = append(still, k)
				continue
			}
			fj.syncLeft = 0
			fj.round++
			if fj.round >= fj.rounds {
				sol.Completion[k] = t
			} else {
				fj.workLeft = fj.scale * fj.tau
				fj.roundStarted = false
				computing[fj.rank/64] |= 1 << (fj.rank % 64)
			}
		}
		syncing = still
		for i, k := range alloc {
			fj := &jobs[k]
			fj.workLeft -= rates[i] * dt
			if fj.workLeft <= eps {
				fj.workLeft = 0
				fj.syncLeft = fj.sigma
				computing[fj.rank/64] &^= 1 << (fj.rank % 64)
				syncing = append(syncing, k)
			}
		}
	}

	for i := range jobs {
		if jobs[i].round < jobs[i].rounds {
			return nil, fmt.Errorf("relax: fluid simulation did not finish job %d (%d of %d rounds)", i, jobs[i].round, jobs[i].rounds)
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

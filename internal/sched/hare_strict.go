package sched

import (
	"fmt"
	"math"
	"sort"

	"hare/internal/core"
	"hare/internal/sched/relax"
)

// HareStrict is the strict-gang ablation of Hare: it keeps the same
// relaxation-driven round ordering, but schedules every round
// scale-fixed in the *traditional* sense — all of a round's tasks
// must start simultaneously on distinct GPUs (Fig. 4(a)), instead of
// Hare's relaxed rule that lets them run sequentially when that
// finishes earlier (Fig. 4(b)). The gap between HareStrict and Hare
// quantifies the benefit of relaxed scale-fixed synchronization.
type HareStrict struct{}

// NewHareStrict returns the strict-gang ablation scheduler.
func NewHareStrict() *HareStrict { return &HareStrict{} }

// Name implements Algorithm.
func (*HareStrict) Name() string { return "Hare-strict" }

// Schedule implements Algorithm.
func (*HareStrict) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	for _, j := range in.Jobs {
		if j.Scale > in.NumGPUs {
			return nil, errScaleTooLarge(j, in.NumGPUs)
		}
	}
	sol, err := relax.Fluid(in)
	if err != nil {
		return nil, fmt.Errorf("hare-strict: relaxation failed: %w", err)
	}
	// Order rounds by their H (all tasks of a round share it).
	type roundRef struct {
		job   core.JobID
		round int
		h     float64
	}
	var rounds []roundRef
	for _, j := range in.Jobs {
		for r := 0; r < j.Rounds; r++ {
			rounds = append(rounds, roundRef{job: j.ID, round: r, h: sol.H(j.ID, r)})
		}
	}
	sort.SliceStable(rounds, func(a, b int) bool {
		if rounds[a].h != rounds[b].h {
			return rounds[a].h < rounds[b].h
		}
		if rounds[a].job != rounds[b].job {
			return rounds[a].job < rounds[b].job
		}
		return rounds[a].round < rounds[b].round
	})

	s := core.NewSchedule()
	g := newGangState(in)
	barrier := make([]float64, len(in.Jobs))
	for _, j := range in.Jobs {
		barrier[j.ID] = j.Arrival
	}
	for _, rr := range rounds {
		j := in.Jobs[rr.job]
		t0, err := g.earliestForScale(j.Scale, barrier[rr.job])
		if err != nil {
			return nil, err
		}
		gpus := pickFastest(in, j, g.idleAt(t0), j.Scale)
		var roundEnd float64
		for k, m := range gpus {
			s.Place(core.TaskRef{Job: j.ID, Round: rr.round, Index: k}, m, t0)
			end := t0 + in.Train[j.ID][m] + in.Sync[j.ID][m]
			roundEnd = math.Max(roundEnd, end)
			g.free[m] = t0 + in.Train[j.ID][m]
		}
		barrier[rr.job] = roundEnd
	}
	return s, nil
}

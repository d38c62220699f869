package sched

import (
	"fmt"
	"math"
	"sort"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/sched/relax"
)

// OnlineHare is the dynamic-arrival extension the paper leaves as
// future work (§1, Limitations): a non-clairvoyant scheduler that
// re-runs Hare's relaxation + list scheduling at every job arrival,
// seeing only the jobs that have arrived so far. Work committed
// before an arrival (tasks already started on their GPUs) is never
// revoked — task-level non-preemption carries over — but every
// not-yet-started round is re-planned with the new information.
//
// Comparing OnlineHare with the offline Hare quantifies the value of
// arrival clairvoyance (experiments.AblationOnline).
type OnlineHare struct {
	// Pick is the line-12 GPU choice, as in Hare.
	Pick GPUPick
	// rec, when set, traces committed placement decisions, epoch by
	// epoch (re-planned, uncommitted placements are not reported).
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder.
func (o *OnlineHare) SetRecorder(r *obs.Recorder) { o.rec = r }

// NewOnlineHare returns the online variant.
func NewOnlineHare() *OnlineHare { return &OnlineHare{Pick: PickEarliestFinish} }

// Name implements Algorithm.
func (*OnlineHare) Name() string { return "Hare-online" }

// jobState tracks a job's committed progress across planning epochs.
type jobState struct {
	// committed is the number of leading rounds already fixed.
	committed int
	// barrier is the completion time of the last committed round
	// (the job's arrival before anything commits).
	barrier float64
}

// Schedule implements Algorithm.
func (o *OnlineHare) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// Distinct arrival epochs, in order.
	epochSet := make(map[float64]bool)
	for _, j := range in.Jobs {
		epochSet[j.Arrival] = true
	}
	epochs := make([]float64, 0, len(epochSet))
	for t := range epochSet {
		epochs = append(epochs, t)
	}
	sort.Float64s(epochs)

	s := core.NewSchedule()
	phi := make([]float64, in.NumGPUs)
	// GPU classes come from the full instance: each epoch's
	// sub-instance reuses its Train rows, so they stay valid.
	classes := (&Hare{Pick: o.Pick}).gpuClasses(in)
	states := make([]jobState, len(in.Jobs))
	for _, j := range in.Jobs {
		states[j.ID].barrier = j.Arrival
	}

	for ei, now := range epochs {
		next := math.Inf(1)
		if ei+1 < len(epochs) {
			next = epochs[ei+1]
		}
		if err := o.planEpoch(in, s, phi, classes, states, now, next); err != nil {
			return nil, fmt.Errorf("hare-online: epoch at %g: %w", now, err)
		}
	}
	// Everything must be committed after the final epoch.
	for _, j := range in.Jobs {
		if states[j.ID].committed != j.Rounds {
			return nil, fmt.Errorf("hare-online: job %d committed %d/%d rounds", j.ID, states[j.ID].committed, j.Rounds)
		}
	}
	return s, nil
}

// planEpoch plans all remaining rounds of arrived jobs as offline Hare
// would, then commits only the rounds that start before the next
// arrival.
func (o *OnlineHare) planEpoch(in *core.Instance, s *core.Schedule, phi []float64, classes [][]int, states []jobState, now, next float64) error {
	// Sub-instance over remaining work of arrived jobs. subID[i] is
	// the real job behind sub-job i.
	var subJobs []*core.Job
	var subID []core.JobID
	var train, syncT [][]float64
	for _, j := range in.Jobs {
		st := states[j.ID]
		if j.Arrival > now || st.committed == j.Rounds {
			continue
		}
		subJobs = append(subJobs, &core.Job{
			ID:      core.JobID(len(subJobs)),
			Name:    j.Name,
			Model:   j.Model,
			Weight:  j.Weight,
			Arrival: math.Max(st.barrier, now),
			Rounds:  j.Rounds - st.committed,
			Scale:   j.Scale,
		})
		subID = append(subID, j.ID)
		train = append(train, in.Train[j.ID])
		syncT = append(syncT, in.Sync[j.ID])
	}
	if len(subJobs) == 0 {
		return nil
	}
	sub := &core.Instance{Jobs: subJobs, NumGPUs: in.NumGPUs, Train: train, Sync: syncT}
	sol, err := relax.Fluid(sub)
	if err != nil {
		return err
	}

	// List-schedule the sub-instance over the *current* φ, exactly as
	// Algorithm 1 does, recording per-round placements.
	type placed struct {
		task  core.TaskRef // sub-instance coordinates
		gpu   int
		start float64
		h     float64
	}
	pi := sub.Tasks()
	sort.SliceStable(pi, func(a, b int) bool {
		ha, hb := sol.H(pi[a].Job, pi[a].Round), sol.H(pi[b].Job, pi[b].Round)
		if ha != hb {
			return ha < hb
		}
		if pi[a].Job != pi[b].Job {
			return pi[a].Job < pi[b].Job
		}
		if pi[a].Round != pi[b].Round {
			return pi[a].Round < pi[b].Round
		}
		return pi[a].Index < pi[b].Index
	})

	gpus := newGPUPicker(classes, phi)
	barrier := make([][]float64, len(subJobs))
	for i, j := range subJobs {
		barrier[i] = make([]float64, j.Rounds)
	}
	h := &Hare{Pick: o.Pick}
	var plan []placed
	for _, t := range pi {
		j := subJobs[t.Job]
		ti := j.Arrival
		if t.Round > 0 {
			ti = barrier[t.Job][t.Round-1]
		}
		m := h.pickGPU(gpus, sub.Train[t.Job], ti)
		start := math.Max(ti, gpus.phi[m])
		gpus.set(m, start+sub.Train[t.Job][m])
		end := start + sub.Train[t.Job][m] + sub.Sync[t.Job][m]
		if end > barrier[t.Job][t.Round] {
			barrier[t.Job][t.Round] = end
		}
		plan = append(plan, placed{task: t, gpu: m, start: start, h: sol.H(t.Job, t.Round)})
	}

	// Commit the rounds that have *begun* before the next arrival:
	// once a round's first task starts, its sequence entries are
	// already with the executors and — tasks being non-preemptible —
	// the round runs to completion; only rounds that have not begun
	// are re-planned with the new information. Round starts are
	// ordered within a job, so a committed round's predecessors are
	// always committed too.
	roundFirstStart := make(map[[2]int]float64)
	for _, p := range plan {
		key := [2]int{int(p.task.Job), p.task.Round}
		if cur, ok := roundFirstStart[key]; !ok || p.start < cur {
			roundFirstStart[key] = p.start
		}
	}
	for _, p := range plan {
		if roundFirstStart[[2]int{int(p.task.Job), p.task.Round}] >= next {
			continue // round not begun before the next arrival
		}
		realJob := subID[p.task.Job]
		realRound := states[realJob].committed + p.task.Round
		s.Place(core.TaskRef{Job: realJob, Round: realRound, Index: p.task.Index}, p.gpu, p.start)
		if o.rec.Enabled() {
			o.rec.Emit(obs.Event{
				Type: obs.EvSchedDecision, Time: p.start, GPU: p.gpu,
				Job: int(realJob), Round: realRound, Index: p.task.Index,
				H: p.h, Note: "online/" + o.Pick.String(),
			})
		}
		if phi[p.gpu] < p.start+in.Train[realJob][p.gpu] {
			phi[p.gpu] = p.start + in.Train[realJob][p.gpu]
		}
	}
	// Advance job states.
	for i, j := range subJobs {
		committedHere := 0
		for r := 0; r < j.Rounds; r++ {
			if roundFirstStart[[2]int{i, r}] < next {
				committedHere = r + 1
			} else {
				break
			}
		}
		if committedHere > 0 {
			real := subID[i]
			states[real].committed += committedHere
			states[real].barrier = barrier[i][committedHere-1]
		}
	}
	return nil
}

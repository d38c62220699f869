package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/sched/relax"
)

// GPUPick selects how Algorithm 1's line 12 chooses a GPU for the
// next task.
type GPUPick int

const (
	// PickEarliestAvailable is the paper's rule: m* = argmin_m φ_m.
	PickEarliestAvailable GPUPick = iota
	// PickEarliestFinish is the ablation variant: m* minimizes the
	// task's finish time max(t_i, φ_m) + T^c_{i,m}, trading a later
	// slot on a fast GPU against an early slot on a slow one.
	PickEarliestFinish
)

func (p GPUPick) String() string {
	switch p {
	case PickEarliestAvailable:
		return "earliest-available"
	case PickEarliestFinish:
		return "earliest-finish"
	}
	return fmt.Sprintf("GPUPick(%d)", int(p))
}

// Hare implements the paper's Algorithm 1: solve the relaxed problem,
// sort tasks by middle completion time H_i, then list-schedule each
// task at the earliest feasible time on the chosen GPU. Tasks of the
// same round may land sequentially on one GPU — the relaxed
// scale-fixed synchronization that distinguishes Hare from strict
// gang scheduling.
type Hare struct {
	// Pick selects the line-12 GPU choice; the zero value is the
	// paper's earliest-available rule.
	Pick GPUPick
	// name overrides the display name (used by ablation variants).
	name string
	// rec, when set, traces every placement decision: the task, its
	// relaxation sort key H_i, the chosen GPU and the planned start.
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder; each Schedule call
// then emits one EvSchedDecision per task placement.
func (h *Hare) SetRecorder(r *obs.Recorder) { h.rec = r }

// NewHare returns the Hare scheduler. It uses the earliest-finish
// GPU pick: the paper's relaxation carries per-GPU assignment
// information (ŷ_{i,m}) into Algorithm 1 that our solver-free fluid
// relaxation does not, so the finish-time-aware pick restores the
// heterogeneity signal at assignment time. The paper-literal
// argmin-φ pick is available as NewHareEA for the ablation study
// (experiments.AblationEFT), where it measurably underperforms.
func NewHare() *Hare { return &Hare{Pick: PickEarliestFinish} }

// NewHareEA returns the paper-literal line-12 variant (m* = argmin_m
// φ_m), kept for the ablation study.
func NewHareEA() *Hare {
	return &Hare{Pick: PickEarliestAvailable, name: "Hare-EA"}
}

// NewHareEFT is an alias of NewHare retained for the ablation lineup.
func NewHareEFT() *Hare {
	return &Hare{Pick: PickEarliestFinish, name: "Hare-EFT"}
}

// Name implements Algorithm.
func (h *Hare) Name() string {
	if h.name != "" {
		return h.name
	}
	return "Hare"
}

// orderedTask pairs a task with its sort keys.
type orderedTask struct {
	task core.TaskRef
	h    float64
}

// Schedule implements Algorithm.
func (h *Hare) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// Step 1: relaxation (lines 3–4) — x̂_i and H_i, then the
	// non-descending sequence π.
	sol, err := relax.Fluid(in)
	if err != nil {
		return nil, fmt.Errorf("hare: relaxation failed: %w", err)
	}
	tasks := in.Tasks()
	pi := make([]orderedTask, len(tasks))
	for i, t := range tasks {
		pi[i] = orderedTask{task: t, h: sol.H(t.Job, t.Round)}
	}
	// The key (H, job, round, index) is unique per task, so the order
	// does not depend on the sort's stability.
	slices.SortFunc(pi, func(a, b orderedTask) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		// Deterministic tie-break: rounds must not invert within a
		// job, then job/index order.
		ta, tb := a.task, b.task
		if c := cmp.Compare(ta.Job, tb.Job); c != 0 {
			return c
		}
		if c := cmp.Compare(ta.Round, tb.Round); c != 0 {
			return c
		}
		return cmp.Compare(ta.Index, tb.Index)
	})

	// Step 2: list scheduling (lines 5–17).
	s := core.NewSchedule()
	gpus := newGPUPicker(h.gpuClasses(in), make([]float64, in.NumGPUs)) // φ_m, line 2
	// barrier[j][r] caches max_{i∈D_r}(x̃_i + T̃^c + T̃^s) as rounds
	// complete (line 10's maximum).
	barrier := make([][]float64, len(in.Jobs))
	placedInRound := make([][]int, len(in.Jobs))
	for _, j := range in.Jobs {
		barrier[j.ID] = make([]float64, j.Rounds)
		placedInRound[j.ID] = make([]int, j.Rounds)
	}

	for _, ot := range pi {
		t := ot.task
		job := in.Jobs[t.Job]
		// Lines 7–11: task available time t_i.
		var ti float64
		if t.Round == 0 {
			ti = job.Arrival
		} else {
			if placedInRound[t.Job][t.Round-1] != job.Scale {
				// π would violate the barrier ordering; the H sort is
				// stable within a job so this cannot happen, but guard
				// against relaxation bugs.
				return nil, fmt.Errorf("hare: task %v sequenced before round %d completed", t, t.Round-1)
			}
			ti = barrier[t.Job][t.Round-1]
		}
		// Line 12: choose the GPU.
		m := h.pickGPU(gpus, in.Train[t.Job], ti)
		// Lines 13–16.
		start := math.Max(ti, gpus.phi[m])
		s.Place(t, m, start)
		if h.rec.Enabled() {
			h.rec.Emit(obs.Event{
				Type: obs.EvSchedDecision, Time: start, GPU: m,
				Job: int(t.Job), Round: t.Round, Index: t.Index,
				H: ot.h, Note: h.Pick.String(),
			})
		}
		gpus.set(m, start+in.Train[t.Job][m])
		end := start + in.Train[t.Job][m] + in.Sync[t.Job][m]
		if end > barrier[t.Job][t.Round] {
			barrier[t.Job][t.Round] = end
		}
		placedInRound[t.Job][t.Round]++
	}
	return s, nil
}

// gpuClasses partitions the GPUs for h's picker: by Train column for
// the earliest-finish pick, into one class for earliest-available.
func (h *Hare) gpuClasses(in *core.Instance) [][]int {
	if h.Pick == PickEarliestFinish {
		return classifyGPUs(in)
	}
	return oneClass(in.NumGPUs)
}

// pickGPU is line 12 for a task with training-time row train and
// available time ti.
func (h *Hare) pickGPU(gpus *gpuPicker, train []float64, ti float64) int {
	if h.Pick == PickEarliestFinish {
		return gpus.pick(ti, train)
	}
	// PickEarliestAvailable — argmin_m φ_m (line 12).
	return gpus.pick(math.Inf(-1), nil)
}

package sched

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/sched/relax"
	"hare/internal/stats"
)

// uniformInstance builds an instance where every GPU is identical, so
// algorithm-specific behavior is easy to predict.
func uniformInstance(jobs []*core.Job, gpus int, train, sync float64) *core.Instance {
	in := &core.Instance{NumGPUs: gpus, Jobs: jobs}
	for range jobs {
		tr := make([]float64, gpus)
		sy := make([]float64, gpus)
		for m := range tr {
			tr[m], sy[m] = train, sync
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return in
}

func TestGavelFIFOHeadOfLineBlocking(t *testing.T) {
	// Job 0 (wide) arrives first but needs 2 GPUs; job 1 (narrow)
	// arrives later. FIFO must not let job 1 jump the queue even
	// though a single GPU is free immediately.
	jobs := []*core.Job{
		{ID: 0, Name: "wide", Weight: 1, Arrival: 0, Rounds: 1, Scale: 2},
		{ID: 1, Name: "narrow", Weight: 1, Arrival: 0.5, Rounds: 1, Scale: 1},
	}
	in := uniformInstance(jobs, 2, 4, 0)
	s, err := NewGavelFIFO().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s.Placements[core.TaskRef{Job: 0, Round: 0, Index: 0}]
	p1 := s.Placements[core.TaskRef{Job: 1, Round: 0, Index: 0}]
	if p1.Start < p0.Start {
		t.Errorf("FIFO let the later job start first (%.2f < %.2f)", p1.Start, p0.Start)
	}
}

func TestGavelFIFOPicksFastestGPUs(t *testing.T) {
	// One single-task job on a two-speed fleet: Gavel's FIFO assigns
	// the fastest available GPU.
	jobs := []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: 1, Scale: 1}}
	in := &core.Instance{
		NumGPUs: 2, Jobs: jobs,
		Train: [][]float64{{9, 3}},
		Sync:  [][]float64{{0, 0}},
	}
	s, err := NewGavelFIFO().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Placements[core.TaskRef{Job: 0, Round: 0}]; p.GPU != 1 {
		t.Errorf("job placed on GPU %d, want the fast GPU 1", p.GPU)
	}
}

func TestSRTFPrefersShortJob(t *testing.T) {
	// Both jobs waiting at time 0 for the single GPU: SRTF runs the
	// short one first regardless of ID order.
	jobs := []*core.Job{
		{ID: 0, Name: "long", Weight: 1, Rounds: 10, Scale: 1},
		{ID: 1, Name: "short", Weight: 1, Rounds: 1, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	s, err := NewSRTF().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	long := s.Placements[core.TaskRef{Job: 0, Round: 0}]
	short := s.Placements[core.TaskRef{Job: 1, Round: 0}]
	if short.Start > long.Start {
		t.Errorf("SRTF ran the long job first (short at %.1f, long at %.1f)", short.Start, long.Start)
	}
}

func TestSRTFNonPreemptive(t *testing.T) {
	// A long job that started must not be interrupted when a short
	// one arrives.
	jobs := []*core.Job{
		{ID: 0, Name: "long", Weight: 1, Arrival: 0, Rounds: 5, Scale: 1},
		{ID: 1, Name: "short", Weight: 1, Arrival: 1, Rounds: 1, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	s, err := NewSRTF().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Long job runs 0..10 contiguous; short must start at 10.
	if p := s.Placements[core.TaskRef{Job: 1, Round: 0}]; math.Abs(p.Start-10) > 1e-9 {
		t.Errorf("short job started at %.2f, want 10 (non-preemption)", p.Start)
	}
}

func TestSchedHomoObliviousPlacement(t *testing.T) {
	// The heterogeneity-oblivious baseline takes the first idle GPUs
	// by index even when the last GPU is far faster.
	jobs := []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: 1, Scale: 1}}
	in := &core.Instance{
		NumGPUs: 2, Jobs: jobs,
		Train: [][]float64{{9, 1}},
		Sync:  [][]float64{{0, 0}},
	}
	s, err := NewSchedHomo().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Placements[core.TaskRef{Job: 0, Round: 0}]; p.GPU != 0 {
		t.Errorf("oblivious baseline picked GPU %d; expected first-by-index 0", p.GPU)
	}
}

func TestSchedHomoWSPTOrder(t *testing.T) {
	// Equal lengths, different weights: heavier job first.
	jobs := []*core.Job{
		{ID: 0, Name: "light", Weight: 1, Rounds: 2, Scale: 1},
		{ID: 1, Name: "heavy", Weight: 5, Rounds: 2, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 3, 0)
	s, err := NewSchedHomo().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[core.TaskRef{Job: 1, Round: 0}].Start > s.Placements[core.TaskRef{Job: 0, Round: 0}].Start {
		t.Error("heavier job not scheduled first")
	}
}

func TestAlloxSingleGPUPerJob(t *testing.T) {
	rng := stats.New(91)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng.Split(), 6, 4)
		s, err := NewSchedAllox().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateSchedule(in, s); err != nil {
			t.Fatal(err)
		}
		// Every job's tasks all share one GPU (job-level scheduling).
		gpuOf := make(map[core.JobID]int)
		//lint:ordered pairwise consistency check; pass/fail is order-independent
		for tr, p := range s.Placements {
			if g, ok := gpuOf[tr.Job]; ok && g != p.GPU {
				t.Fatalf("trial %d: AlloX split job %d across GPUs %d and %d", trial, tr.Job, g, p.GPU)
			}
			gpuOf[tr.Job] = p.GPU
		}
	}
}

func TestAlloxPrefersEfficientAssignment(t *testing.T) {
	// Two jobs, two GPUs: job 0 is fast on GPU 0, job 1 on GPU 1;
	// the matching must not swap them.
	jobs := []*core.Job{
		{ID: 0, Name: "a", Weight: 1, Rounds: 2, Scale: 1},
		{ID: 1, Name: "b", Weight: 1, Rounds: 2, Scale: 1},
	}
	in := &core.Instance{
		NumGPUs: 2, Jobs: jobs,
		Train: [][]float64{{1, 8}, {8, 1}},
		Sync:  [][]float64{{0, 0}, {0, 0}},
	}
	s, err := NewSchedAllox().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[core.TaskRef{Job: 0, Round: 0}].GPU != 0 ||
		s.Placements[core.TaskRef{Job: 1, Round: 0}].GPU != 1 {
		t.Error("AlloX matched jobs to their slow GPUs")
	}
}

func TestHareRelaxedSyncSharesGPU(t *testing.T) {
	// A 2-task round on a single GPU is impossible for gang
	// schedulers but fine for Hare: the tasks run back-to-back.
	jobs := []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: 2, Scale: 2}}
	in := uniformInstance(jobs, 1, 2, 0.5)
	s, err := NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateSchedule(in, s); err != nil {
		t.Fatal(err)
	}
	// Round 0: tasks at 0 and 2; barrier 4.5; round 1 at 4.5 and 6.5.
	if c := s.JobCompletions(in)[0]; math.Abs(c-9) > 1e-9 {
		t.Errorf("completion %g, want 9", c)
	}
	// Gang schedulers must reject this instance.
	if _, err := NewGavelFIFO().Schedule(in); err == nil {
		t.Error("gang scheduler accepted scale > cluster size")
	}
}

func TestHareUsesRelaxationOrdering(t *testing.T) {
	// The relaxation orders the heavy short job before the light long
	// one; Hare's schedule must reflect it on a single GPU.
	jobs := []*core.Job{
		{ID: 0, Name: "light-long", Weight: 1, Rounds: 6, Scale: 1},
		{ID: 1, Name: "heavy-short", Weight: 10, Rounds: 1, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	sol, err := relax.Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.H(1, 0) >= sol.H(0, 0) {
		t.Fatalf("relaxation did not prioritize the heavy short job")
	}
	s, err := NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[core.TaskRef{Job: 1, Round: 0}].Start > s.Placements[core.TaskRef{Job: 0, Round: 0}].Start {
		t.Error("Hare ran the light long job first")
	}
}

func TestHareStrictFeasibleAndNoWorseThanFIFO(t *testing.T) {
	rng := stats.New(97)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng.Split(), 5, 4)
		s, err := NewHareStrict().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateSchedule(in, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Strict gang per round: all tasks of a round share a start.
		starts := make(map[[2]int]float64)
		//lint:ordered pairwise consistency check; pass/fail is order-independent
		for tr, p := range s.Placements {
			key := [2]int{int(tr.Job), tr.Round}
			if prev, ok := starts[key]; ok && prev != p.Start {
				t.Fatalf("trial %d: round %v tasks start at %g and %g", trial, key, prev, p.Start)
			}
			starts[key] = p.Start
		}
	}
}

func TestHareNoIdleWhenWorkAvailable(t *testing.T) {
	// Starvation-freedom sanity: with all jobs at time 0 on one GPU,
	// Hare's schedule leaves no gap between consecutive tasks.
	jobs := []*core.Job{
		{ID: 0, Name: "a", Weight: 1, Rounds: 2, Scale: 1},
		{ID: 1, Name: "b", Weight: 2, Rounds: 2, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 3, 0)
	s, err := NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Sequences(1)[0]
	for i := 1; i < len(seq); i++ {
		prev := s.Placements[seq[i-1]]
		cur := s.Placements[seq[i]]
		if gap := cur.Start - (prev.Start + in.Train[seq[i-1].Job][0]); gap > 1e-9 {
			t.Errorf("idle gap %.3f between %v and %v", gap, seq[i-1], seq[i])
		}
	}
}

func TestByNameCoversAll(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", a.Name(), err)
			continue
		}
		if got.Name() != a.Name() {
			t.Errorf("ByName(%q) returned %q", a.Name(), got.Name())
		}
	}
}

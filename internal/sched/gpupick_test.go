package sched

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

// scanEarliestFinish is the O(M) line-12 scan the class-indexed
// picker replaced: the first GPU reaching the minimum finish wins.
func scanEarliestFinish(train, phi []float64, ti float64) int {
	best, bestFinish := 0, math.Inf(1)
	for m := range phi {
		f := math.Max(ti, phi[m]) + train[m]
		if f < bestFinish {
			best, bestFinish = m, f
		}
	}
	return best
}

// scanEarliestAvailable is the O(M) argmin_m φ_m scan, first index
// winning ties.
func scanEarliestAvailable(phi []float64) int {
	best := 0
	for m := 1; m < len(phi); m++ {
		if phi[m] < phi[best] {
			best = m
		}
	}
	return best
}

// typedInstance gives every GPU one of k types, with Train a function
// of (job, type) only, so GPUs of a type form one class.
func typedInstance(rng *stats.RNG, jobs, gpus, k int) (*core.Instance, []int) {
	typ := make([]int, gpus)
	for m := range typ {
		typ[m] = rng.Intn(k)
	}
	in := &core.Instance{NumGPUs: gpus}
	for j := 0; j < jobs; j++ {
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(j), Name: "p", Weight: 1, Rounds: 1, Scale: 1})
		perType := make([]float64, k)
		for c := range perType {
			perType[c] = float64(1 + rng.Intn(4)) // small integers: frequent cross-class ties
		}
		tr := make([]float64, gpus)
		for m := range tr {
			tr[m] = perType[typ[m]]
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, make([]float64, gpus))
	}
	return in, typ
}

// checkPicks compares both picks against the scans for every job.
func checkPicks(t *testing.T, in *core.Instance, phi []float64, ti float64) {
	t.Helper()
	ef := newGPUPicker(classifyGPUs(in), phi)
	for j, row := range in.Train {
		if got, want := ef.pick(ti, row), scanEarliestFinish(row, phi, ti); got != want {
			t.Fatalf("earliest-finish job %d, ti %g, φ %v: picked %d, scan %d", j, ti, phi, got, want)
		}
	}
	ea := newGPUPicker(oneClass(in.NumGPUs), phi)
	if got, want := ea.pick(math.Inf(-1), nil), scanEarliestAvailable(phi); got != want {
		t.Fatalf("earliest-available φ %v: picked %d, scan %d", phi, got, want)
	}
}

func TestPickAllIdleBeforeTi(t *testing.T) {
	// Every GPU frees up before ti, so within a class all members tie
	// and the smallest index must win — a plain min-φ heap would
	// return the member with the smallest φ instead.
	rng := stats.New(21)
	for trial := 0; trial < 100; trial++ {
		in, _ := typedInstance(rng, 1+rng.Intn(5), 1+rng.Intn(40), 1+rng.Intn(4))
		ti := 100.0
		phi := make([]float64, in.NumGPUs)
		for m := range phi {
			phi[m] = rng.Uniform(0, ti)
		}
		checkPicks(t, in, phi, ti)
	}
}

func TestPickDuplicatePhi(t *testing.T) {
	rng := stats.New(22)
	for trial := 0; trial < 200; trial++ {
		in, _ := typedInstance(rng, 1+rng.Intn(5), 1+rng.Intn(40), 1+rng.Intn(4))
		phi := make([]float64, in.NumGPUs)
		for m := range phi {
			phi[m] = float64(rng.Intn(4)) // few distinct values
		}
		checkPicks(t, in, phi, float64(rng.Intn(5)))
	}
}

func TestPickSeparatesColumnsDifferingInOneJob(t *testing.T) {
	// GPUs 0..5 agree on every job but job 2, where GPU 3 is faster:
	// GPU 3 must get its own class, and it must win for job 2 even
	// though GPU 0 (same times elsewhere) is equally free.
	in := &core.Instance{NumGPUs: 6}
	for j := 0; j < 4; j++ {
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(j), Name: "p", Weight: 1, Rounds: 1, Scale: 1})
		tr := []float64{5, 5, 5, 5, 5, 5}
		if j == 2 {
			tr[3] = 4
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, make([]float64, 6))
	}
	classes := classifyGPUs(in)
	if len(classes) != 2 || len(classes[1]) != 1 || classes[1][0] != 3 {
		t.Fatalf("classes %v, want GPU 3 alone", classes)
	}
	phi := make([]float64, 6)
	p := newGPUPicker(classes, phi)
	if got := p.pick(0, in.Train[2]); got != 3 {
		t.Fatalf("job 2 picked GPU %d, want 3", got)
	}
	if got := p.pick(0, in.Train[0]); got != 0 {
		t.Fatalf("job 0 picked GPU %d, want 0", got)
	}
	checkPicks(t, in, []float64{1, 0, 2, 1, 0, 0}, 0.5)
}

func TestPickRoundedFinishTies(t *testing.T) {
	// Near 2^53 the float spacing is 2, so distinct φ land on the same
	// finish: 2^53 + {0.25, 0.5, 1} all round to 2^53, as does
	// (2^53 - 1) + 1 on a GPU of another class. The scan keeps the
	// first index reaching the minimum, not the smallest φ.
	big := math.Exp2(53)
	in := &core.Instance{NumGPUs: 6}
	in.Jobs = []*core.Job{
		{ID: 0, Name: "p", Weight: 1, Rounds: 1, Scale: 1},
		{ID: 1, Name: "q", Weight: 1, Rounds: 1, Scale: 1},
	}
	in.Train = [][]float64{
		{big, big - 1, big, big, big - 1, big},
		{1, 2, 1, 1, 2, 1},
	}
	in.Sync = [][]float64{make([]float64, 6), make([]float64, 6)}
	if f1, f2 := math.Max(0, 1)+big, math.Max(0, 0.25)+big; f1 != f2 {
		t.Fatalf("test premise: %g and %g should round together", f1, f2)
	}
	for _, phi := range [][]float64{
		{1, 1, 0.25, 0.5, 3, 0.25},
		{1, 3, 0.25, 0.5, 1, 0.25},
		{4, 1, 0.5, 0.25, 1, 0.25},
		{0.5, 0.25, 1, 0.25, 0.5, 0},
	} {
		checkPicks(t, in, phi, 0)
	}
}

func TestPickMatchesScanUnderUpdates(t *testing.T) {
	// List-schedule random task streams through both: each pick sets
	// the chosen GPU's φ, so the trees' incremental updates are
	// checked against the scan's plain slice at every step.
	rng := stats.New(23)
	for trial := 0; trial < 60; trial++ {
		in, _ := typedInstance(rng, 1+rng.Intn(8), 1+rng.Intn(64), 1+rng.Intn(6))
		phi := make([]float64, in.NumGPUs)
		ef := newGPUPicker(classifyGPUs(in), phi)
		ea := newGPUPicker(oneClass(in.NumGPUs), phi)
		phiEF := append([]float64(nil), phi...)
		phiEA := append([]float64(nil), phi...)
		for step := 0; step < 200; step++ {
			j := rng.Intn(len(in.Jobs))
			ti := float64(rng.Intn(2 + step/4))
			row := in.Train[j]
			got, want := ef.pick(ti, row), scanEarliestFinish(row, phiEF, ti)
			if got != want {
				t.Fatalf("trial %d step %d: earliest-finish picked %d, scan %d", trial, step, got, want)
			}
			phiEF[want] = math.Max(ti, phiEF[want]) + row[want]
			ef.set(got, phiEF[want])

			got, want = ea.pick(math.Inf(-1), nil), scanEarliestAvailable(phiEA)
			if got != want {
				t.Fatalf("trial %d step %d: earliest-available picked %d, scan %d", trial, step, got, want)
			}
			phiEA[want] = math.Max(ti, phiEA[want]) + row[want]
			ea.set(got, phiEA[want])
		}
	}
}

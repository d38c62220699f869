package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/trace"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs,
// interpolating linearly between the two closest ranks. It returns 0
// for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stopwatch is the benchmark's one reader of the wall clock, the
// clock it measures.
type stopwatch struct{ t0 time.Time }

func startStopwatch() stopwatch {
	//lint:allow walltime the benchmark measures wall time
	return stopwatch{time.Now()}
}

func (s stopwatch) elapsed() time.Duration {
	//lint:allow walltime the benchmark measures wall time
	return time.Since(s.t0)
}

// tracer records nested spans around the benchmark's calls into each
// layer. It is used from one goroutine; a nil tracer records nothing,
// so the untraced path shares the code but not the clock reads.
type tracer struct {
	clock stopwatch
	spans []span
	open  []int
}

type span struct {
	layer      string
	parent     int // -1 for the root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{clock: startStopwatch()} }

// begin opens a span for layer under the innermost open span and
// returns the function that closes it.
func (t *tracer) begin(layer string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: t.clock.elapsed()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].end = t.clock.elapsed()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfMS sums each layer's self time in wall ms: a span's duration
// minus the time its child spans cover. The self times of all layers
// add up to the root spans' total duration by construction.
func (t *tracer) selfMS() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.layer] += ms(self[i])
	}
	return out
}

// rootMS is the total wall ms of the root spans.
func (t *tracer) rootMS() float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return ms(d)
}

// placements lists every task's (GPU, start) in Instance.Tasks order.
// It is the benchmark's only reader of the schedule representation.
func placements(in *core.Instance, plan *core.Schedule) ([]core.TaskRef, []core.Placement, error) {
	tasks := in.Tasks()
	out := make([]core.Placement, len(tasks))
	for i, t := range tasks {
		p, ok := plan.Placements[t]
		if !ok {
			return nil, nil, fmt.Errorf("task %v has no placement", t)
		}
		out[i] = p
	}
	return tasks, out, nil
}

// planDigest is an FNV-64a hash of (GPU, start bits) per task in
// Instance.Tasks order: equal digests mean identical plans.
func planDigest(in *core.Instance, plan *core.Schedule) (uint64, error) {
	_, ps, err := placements(in, plan)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.GPU))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Start))
		h.Write(buf[:])
	}
	return h.Sum64(), nil
}

// dispatchGapsMS returns, per realized task, the wall ms between the
// moment it became runnable on its GPU and the moment its GPU began
// working on it (realized start minus switch stall). Runnable is the
// latest of the previous task's end on that GPU, the release of the
// job's previous round barrier, and the job's arrival. Trace times are
// simulated seconds; timeScale (wall seconds per simulated second)
// converts them to wall time.
func dispatchGapsMS(in *core.Instance, recs []trace.TaskRecord, timeScale float64) []float64 {
	barrier := make([][]float64, len(in.Jobs))
	for j, job := range in.Jobs {
		barrier[j] = make([]float64, job.Rounds)
	}
	for _, r := range recs {
		b := &barrier[r.Task.Job][r.Task.Round]
		*b = math.Max(*b, r.End())
	}
	byGPU := append([]trace.TaskRecord(nil), recs...)
	sort.SliceStable(byGPU, func(a, b int) bool {
		if byGPU[a].GPU != byGPU[b].GPU {
			return byGPU[a].GPU < byGPU[b].GPU
		}
		return byGPU[a].Start < byGPU[b].Start
	})
	gaps := make([]float64, 0, len(recs))
	for i, r := range byGPU {
		job := in.Jobs[r.Task.Job]
		ready := job.Arrival
		if r.Task.Round > 0 {
			ready = math.Max(ready, barrier[r.Task.Job][r.Task.Round-1])
		}
		if i > 0 && byGPU[i-1].GPU == r.GPU {
			ready = math.Max(ready, byGPU[i-1].End())
		}
		gaps = append(gaps, (r.Start-r.Switch-ready)*timeScale*1e3)
	}
	return gaps
}

// phaseMS reads an existing phase timer (perf.PhaseRecorder) from a
// registry the program filled.
func phaseMS(reg *obs.Registry, phase string) float64 {
	return reg.Histogram(`hare_perf_phase_seconds{phase="`+phase+`"}`, nil).Sum() * 1e3
}

// counter reads a counter from a registry the program filled.
func counter(reg *obs.Registry, name string) float64 { return reg.Counter(name).Value() }

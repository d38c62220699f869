package main

import (
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/manager"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/trace"
)

// Timing wrappers around the public interfaces the program accepts.
// Each counts calls and records every call's wall duration, so ratios
// such as RPC calls per task come from measured work. Traced runs use
// them; end-to-end runs hand the program its own implementations.

// calls is a concurrency-safe log of call durations plus a work count
// (tasks planned, bytes written) carried by those calls.
type calls struct {
	mu    sync.Mutex
	durMS []float64
	units int64
}

func (c *calls) observe(start stopwatch, units int) {
	d := ms(start.elapsed())
	c.mu.Lock()
	c.durMS = append(c.durMS, d)
	c.units += int64(units)
	c.mu.Unlock()
}

// snapshot returns a copy of the durations and the work count.
func (c *calls) snapshot() ([]float64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.durMS...), c.units
}

func (c *calls) totalMS() float64 {
	d, _ := c.snapshot()
	var s float64
	for _, x := range d {
		s += x
	}
	return s
}

// timedAlgorithm wraps a scheduler; units are tasks planned. It keeps
// the last instance and plan so probes can re-time parts of the
// planner on exactly what it saw.
type timedAlgorithm struct {
	sched.Algorithm
	tr       *tracer
	plans    calls
	lastIn   *core.Instance
	lastPlan *core.Schedule
}

func (a *timedAlgorithm) Schedule(in *core.Instance) (*core.Schedule, error) {
	defer a.tr.begin("sched.plan")()
	start := startStopwatch()
	plan, err := a.Algorithm.Schedule(in)
	a.plans.observe(start, in.NumTasks())
	a.lastIn, a.lastPlan = in, plan
	return plan, err
}

// timedBackend wraps a manager backend.
type timedBackend struct {
	manager.Backend
	tr   *tracer
	runs calls
}

func (b *timedBackend) Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error) {
	defer b.tr.begin("manager.backend_execute")()
	start := startStopwatch()
	comp, tr, err := b.Backend.Execute(in, plan, cl, models)
	b.runs.observe(start, 0)
	return comp, tr, err
}

// timedLog wraps a write-ahead log; units are bytes appended. Append
// includes the log's fsync.
type timedLog struct {
	store.Log
	appends calls
}

func (l *timedLog) Append(rec []byte) error {
	start := startStopwatch()
	err := l.Log.Append(rec)
	l.appends.observe(start, len(rec))
	return err
}

// timedStore wraps a blob store; units are bytes saved or loaded.
type timedStore struct {
	store.Store
	saves, loads calls
}

func (s *timedStore) Save(key string, data []byte) error {
	start := startStopwatch()
	err := s.Store.Save(key, data)
	s.saves.observe(start, len(data))
	return err
}

func (s *timedStore) Load(key string) ([]byte, error) {
	start := startStopwatch()
	data, err := s.Store.Load(key)
	s.loads.observe(start, len(data))
	return data, err
}

package main

import (
	"runtime/metrics"
	"time"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// The wrappers in this file measure the program from outside, through its
// public interfaces: they forward every call unchanged and record counts,
// host times and heap-allocation deltas around it. Optional interfaces the
// program type-asserts (sim.StatefulScheduler on a scheduler,
// sim.DecisionSink on a control surface) are forwarded too, so wrapping
// changes no output byte.

// clock marks interval boundaries for the end-to-end per-interval latency:
// one sample per simulated interval, from one Adapt call (or Deploy's
// return, for the first interval) to the next Adapt call (or the end of
// the run). It reads the host clock once per interval and nothing else.
type clock struct {
	last    time.Time
	samples []time.Duration
}

func (c *clock) mark() {
	now := time.Now()
	if !c.last.IsZero() {
		c.samples = append(c.samples, now.Sub(c.last))
	}
	c.last = now
}

// layerStats is what the traced pass learns about the core and sim layers.
type layerStats struct {
	deploy          time.Duration
	adapt           []time.Duration
	adaptAllocBytes uint64
	step            []time.Duration
	stepAllocBytes  uint64
	control         controlCounts
}

type controlCounts struct {
	calls, acquire, release, move, errors int
}

// schedWrap times Deploy and Adapt. With stats nil it only feeds the
// interval clock (the untraced pass); with stats set it also records the
// host time and heap bytes allocated inside each scheduler call, the
// engine time between calls, and counts the control calls.
type schedWrap struct {
	inner sim.Scheduler
	clk   *clock
	stats *layerStats

	heap      []metrics.Sample
	stepStart time.Time
	stepAlloc uint64
	// act and wrapped cache the counting wrapper around the engine's
	// control surface, which is the same value for the whole run, so no
	// wrapper is allocated inside a measured call.
	act     sim.Control
	wrapped sim.Control
}

// statefulWrap is schedWrap for schedulers that checkpoint their state.
type statefulWrap struct {
	*schedWrap
	ss sim.StatefulScheduler
}

func (s statefulWrap) CheckpointState() ([]byte, error) { return s.ss.CheckpointState() }
func (s statefulWrap) RestoreState(b []byte) error      { return s.ss.RestoreState(b) }

// wrapScheduler returns inner wrapped for timing, as the scheduler to run
// and as the wrapper itself. The scheduler implements
// sim.StatefulScheduler exactly when inner does.
func wrapScheduler(inner sim.Scheduler, clk *clock, stats *layerStats) (sim.Scheduler, *schedWrap) {
	w := &schedWrap{inner: inner, clk: clk, stats: stats,
		heap: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if ss, ok := inner.(sim.StatefulScheduler); ok {
		return statefulWrap{w, ss}, w
	}
	return w, w
}

func (s *schedWrap) heapBytes() uint64 {
	metrics.Read(s.heap)
	return s.heap[0].Value.Uint64()
}

func (s *schedWrap) Name() string { return s.inner.Name() }

func (s *schedWrap) control(act sim.Control) sim.Control {
	if act != s.act {
		s.act, s.wrapped = act, wrapControl(act, &s.stats.control)
	}
	return s.wrapped
}

func (s *schedWrap) Deploy(v *sim.View, act sim.Control) error {
	if s.stats == nil {
		err := s.inner.Deploy(v, act)
		s.clk.mark()
		return err
	}
	ctl := s.control(act)
	start := time.Now()
	err := s.inner.Deploy(v, ctl)
	s.stats.deploy = time.Since(start)
	s.clk.mark()
	s.stepStart, s.stepAlloc = time.Now(), s.heapBytes()
	return err
}

func (s *schedWrap) Adapt(v *sim.View, act sim.Control) error {
	s.clk.mark()
	if s.stats == nil {
		return s.inner.Adapt(v, act)
	}
	ctl := s.control(act)
	a0 := s.heapBytes()
	start := time.Now()
	s.stats.step = append(s.stats.step, start.Sub(s.stepStart))
	s.stats.stepAllocBytes += a0 - s.stepAlloc
	err := s.inner.Adapt(v, ctl)
	end := time.Now()
	s.stats.adapt = append(s.stats.adapt, end.Sub(start))
	s.stepAlloc = s.heapBytes()
	s.stats.adaptAllocBytes += s.stepAlloc - a0
	s.stepStart = end
	return err
}

// finish records the last engine stretch, from the final Adapt's return to
// the end of the run.
func (s *schedWrap) finish() {
	s.clk.mark()
	if s.stats != nil {
		s.stats.step = append(s.stats.step, time.Since(s.stepStart))
		s.stats.stepAllocBytes += s.heapBytes() - s.stepAlloc
	}
}

// controlWrap counts calls into the engine's control surface.
type controlWrap struct {
	inner sim.Control
	n     *controlCounts
}

// sinkControl is controlWrap for control surfaces that record decisions.
type sinkControl struct {
	controlWrap
	ds sim.DecisionSink
}

func (c sinkControl) Decide(d obs.Decision)   { c.ds.Decide(d) }
func (c sinkControl) DecisionsObserved() bool { return c.ds.DecisionsObserved() }

// wrapControl returns inner wrapped for counting; the result implements
// sim.DecisionSink exactly when inner does.
func wrapControl(inner sim.Control, n *controlCounts) sim.Control {
	w := controlWrap{inner: inner, n: n}
	if ds, ok := inner.(sim.DecisionSink); ok {
		return sinkControl{w, ds}
	}
	return w
}

func (c controlWrap) count(err error) error {
	c.n.calls++
	if err != nil {
		c.n.errors++
	}
	return err
}

func (c controlWrap) SelectAlternate(pe, alt int) error {
	return c.count(c.inner.SelectAlternate(pe, alt))
}

func (c controlWrap) SelectRoute(group, target int) error {
	return c.count(c.inner.SelectRoute(group, target))
}

func (c controlWrap) AcquireVM(className string) (int, error) {
	c.n.acquire++
	id, err := c.inner.AcquireVM(className)
	return id, c.count(err)
}

func (c controlWrap) ReleaseVM(vmID int) error {
	c.n.release++
	return c.count(c.inner.ReleaseVM(vmID))
}

func (c controlWrap) AssignCores(pe, vmID, n int) error {
	return c.count(c.inner.AssignCores(pe, vmID, n))
}

func (c controlWrap) UnassignCores(pe, vmID, n int) error {
	return c.count(c.inner.UnassignCores(pe, vmID, n))
}

func (c controlWrap) MovePE(pe, fromVM, toVM, n int) error {
	c.n.move++
	return c.count(c.inner.MovePE(pe, fromVM, toVM, n))
}

func (c controlWrap) Menu() *cloud.Menu         { return c.inner.Menu() }
func (c controlWrap) Log(action, detail string) { c.inner.Log(action, detail) }

// providerWrap counts lookups into the infrastructure trace provider.
type providerWrap struct {
	inner                trace.Provider
	cpu, latency, bwidth int64
}

func (p *providerWrap) CPUCoeff(vm int64, sec int64) float64 {
	p.cpu++
	return p.inner.CPUCoeff(vm, sec)
}

func (p *providerWrap) LatencySec(a, b int64, sec int64) float64 {
	p.latency++
	return p.inner.LatencySec(a, b, sec)
}

func (p *providerWrap) BandwidthMbps(a, b int64, sec int64) float64 {
	p.bwidth++
	return p.inner.BandwidthMbps(a, b, sec)
}

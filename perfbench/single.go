package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/sweep"
	"dynamicdf/internal/trace"
)

// singleRun is one workload that is one long simulation, run the way
// dfsim runs a scenario file.
type singleRun struct {
	// name prefixes the run's output digests.
	name string
	doc  []byte
	// traced attaches the obs tracer (NDJSON into memory) and writes the
	// CSV and audit log inside the timed region, as dfsim -trace -csv
	// -audit does; otherwise the outputs are rendered after timing, for the
	// correctness check only.
	traced bool
}

// runMode selects what one simulation attaches beyond the workload itself.
type runMode int

const (
	modePlain    runMode = iota // the workload as a user runs it
	modeDetached                // no tracer and no audit log: the obs baseline
	modeLayers                  // plain plus every counting wrapper, the stage profiler and the strict invariant checker
)

// runResult is one simulation's outcome.
type runResult struct {
	build    time.Duration // Parse + Build
	wall     time.Duration // Run, plus output writes for traced workloads
	sum      metrics.Summary
	theta    float64
	omega    float64 // the lowest tenant's mean Ω in multi-tenant runs
	clk      clock
	digests  map[string]string
	events   int64
	traceLen int64
	csvWrite time.Duration
	audWrite time.Duration

	stats    *layerStats
	provider *providerWrap
	profile  []obs.StageStats
}

func (w singleRun) parseBuild() (*scenario.Built, time.Duration, error) {
	start := time.Now()
	sc, err := scenario.Parse(bytes.NewReader(w.doc))
	if err != nil {
		return nil, 0, err
	}
	built, err := sc.Build()
	if err != nil {
		return nil, 0, err
	}
	return built, time.Since(start), nil
}

func (w singleRun) run(mode runMode) (*runResult, error) {
	runtime.GC()
	built, buildTime, err := w.parseBuild()
	if err != nil {
		return nil, err
	}
	res := &runResult{build: buildTime}
	engine := built.Engine
	var prof *obs.StageProfiler
	if mode != modePlain {
		cfg := built.Config
		switch mode {
		case modeDetached:
			cfg.Audit = false
		case modeLayers:
			res.provider = &providerWrap{inner: cfg.Perf}
			cfg.Perf = res.provider
			prof = obs.NewStageProfiler(nil)
			cfg.Profiler = prof
			cfg.Checker = invariant.NewStrict()
			n := int(cfg.HorizonSec / cfg.IntervalSec)
			res.stats = &layerStats{adapt: make([]time.Duration, 0, n), step: make([]time.Duration, 0, n)}
		}
		if engine, err = sim.NewEngine(cfg); err != nil {
			return nil, err
		}
	}
	// Every mode but the detached one renders the outputs: inside the timed
	// region for traced workloads, after it for the others.
	writes := mode != modeDetached
	var tracer *obs.Tracer
	sink, csv, audit := newDigestWriter(), newDigestWriter(), newDigestWriter()
	if writes && w.traced {
		tracer = obs.NewTracer(sink)
		engine.SetTracer(tracer)
	}
	res.clk.samples = make([]time.Duration, 0, built.Config.HorizonSec/built.Config.IntervalSec)
	sched, timer := wrapScheduler(built.Scheduler, &res.clk, res.stats)
	writeOutputs := func() error {
		t := time.Now()
		if err := engine.Collector().WriteCSV(csv); err != nil {
			return err
		}
		res.csvWrite = time.Since(t)
		t = time.Now()
		if err := engine.WriteAuditJSONL(audit); err != nil {
			return err
		}
		res.audWrite = time.Since(t)
		return tracer.Flush()
	}

	start := time.Now()
	sum, err := engine.Run(sched)
	timer.finish()
	if err == nil && writes && w.traced {
		err = writeOutputs()
	}
	res.wall = time.Since(start)
	if err == nil && writes && !w.traced {
		err = writeOutputs()
	}
	if err != nil {
		return nil, err
	}

	res.sum = sum
	res.theta = built.Objective.Theta(sum.MeanGamma, sum.TotalCostUSD)
	res.omega = sum.MeanOmega
	for _, ts := range sum.Tenants {
		res.omega = min(res.omega, ts.MeanOmega)
	}
	if tracer != nil {
		res.events, res.traceLen = tracer.Count(), sink.n
	}
	res.profile = prof.Snapshot()
	if writes {
		summary, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		res.digests = map[string]string{
			w.name + "summary": digest(summary),
			w.name + "csv":     csv.digest(),
			w.name + "audit":   audit.digest(),
		}
		if w.traced {
			res.digests[w.name+"trace"] = sink.digest()
		}
	}
	if sum.Intervals == 0 || len(res.clk.samples) != sum.Intervals {
		return nil, fmt.Errorf("run covered %d intervals, %d timed", sum.Intervals, len(res.clk.samples))
	}
	return res, nil
}

// setup parses and builds the scenario once untimed, to warm up, and once
// timed. It returns the timed set-up in seconds, or 0 after recording a
// failure.
func (w singleRun) setup(b *book) float64 {
	var d time.Duration
	for i := 0; i < 2; i++ {
		runtime.GC()
		var err error
		if _, d, err = w.parseBuild(); err != nil {
			b.attempted++
			b.fail("set-up: %v", err)
			return 0
		}
	}
	return d.Seconds()
}

// scenarios is a workload of several seeded scenario variants of one
// shape. Runs cycle through every variant, so each invocation averages over
// the variants' different decision streams instead of resting on one.
type scenarios []singleRun

// endToEnd runs as many whole cycles over the variants as fit in d, and
// always one. Rates and latencies are medians over every run of every
// cycle; the simulated outcomes, identical from cycle to cycle, are means
// over the variants.
func (v scenarios) endToEnd(b *book, d time.Duration) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		s := v[i%len(v)].setup(b)
		if s == 0 {
			return
		}
		setups = append(setups, s)
	}
	b.set("setup_s", "s", median(setups))
	var rates, jobs, lat []float64
	var theta, omega, cost float64
	cycles := 0
	for fit := newFitter(d); fit.another(); cycles++ {
		for _, w := range v {
			b.attempted++
			r, err := w.run(modePlain)
			if err != nil {
				b.fail("%s run: %v", w.name, err)
				return
			}
			if !b.check(r.digests) {
				return
			}
			rates = append(rates, float64(r.sum.Intervals)/r.wall.Seconds())
			jobs = append(jobs, 1/(r.build+r.wall).Seconds())
			lat = append(lat, millis(r.clk.samples)...)
			if cycles == 0 {
				theta += r.theta / float64(len(v))
				omega += r.omega / float64(len(v))
				cost += r.sum.TotalCostUSD / float64(len(v))
			}
		}
	}
	b.set("intervals_per_s", "1/s", median(rates))
	b.set("jobs_per_s", "1/s", median(jobs))
	b.set("interval_p50_ms", "ms", quantile(lat, 0.5))
	b.set("interval_p95_ms", "ms", quantile(lat, 0.95))
	b.set("theta", "theta", theta)
	b.set("omega_mean", "ratio", omega)
	b.set("cost_usd", "USD", cost)
	b.set("peak_rss_mb", "MB", peakRSSMB())
	b.notes = append(b.notes, fmt.Sprintf("%d cycles over %d scenarios, %d interval samples", cycles, len(v), len(lat)))
}

// perLayer runs the first variant once to warm up, then every variant
// plain, detached (the obs baseline) and with every wrapper attached, so
// the percentiles and shares rest on every variant's runs. The first
// variant also runs as a one-job campaign, for the sweep layer.
func (v scenarios) perLayer(b *book) {
	gen := v[0].setupLayers(b)
	if gen == 0 {
		return
	}
	runOne := func(w singleRun, mode runMode) *runResult {
		b.attempted++
		r, err := w.run(mode)
		if err != nil {
			b.fail("%s run: %v", w.name, err)
			return nil
		}
		if r.digests != nil && !b.check(r.digests) {
			return nil
		}
		return r
	}
	if runOne(v[0], modePlain) == nil {
		return
	}
	var plain, layered []*runResult
	var jobTimes []float64
	var events, traceBytes, intervals float64
	var plainWall, detachedWall, csvWrite, audWrite time.Duration
	for _, w := range v {
		p, d, l := runOne(w, modePlain), runOne(w, modeDetached), runOne(w, modeLayers)
		if p == nil || d == nil || l == nil {
			return
		}
		plain, layered = append(plain, p), append(layered, l)
		jobTimes = append(jobTimes, (p.build + p.wall).Seconds())
		events += float64(p.events) / float64(len(v))
		traceBytes += float64(p.traceLen)
		intervals += float64(p.sum.Intervals)
		plainWall += p.wall
		detachedWall += d.wall
		csvWrite += p.csvWrite / time.Duration(len(v))
		audWrite += p.audWrite / time.Duration(len(v))
	}
	b.set("trace.gen_share", "ratio", gen/median(jobTimes))
	b.set("obs.events", "count", events)
	b.set("obs.bytes_per_interval", "B", traceBytes/intervals)
	b.set("obs.encode_share", "ratio", 1-detachedWall.Seconds()/plainWall.Seconds())
	b.set("metrics.csv_write_s", "s", csvWrite.Seconds())
	b.set("sim.audit_write_s", "s", audWrite.Seconds())
	layerMetrics(b, plain, layered)

	// The first variant as a one-job campaign through the sweep layer.
	spec := mustJSON(obj{"name": "perfbench-job", "base": json.RawMessage(v[0].doc)})
	if pool := sweepLayer(b, spec); pool != nil && !sameOutcome(pool.report.Results[0], plain[0]) {
		b.fail("sweep job outcome %+v differs from the direct run's", pool.report.Results[0])
	}
}

// sameOutcome reports whether a sweep job's result matches a direct run of
// the same scenario.
func sameOutcome(res sweep.Result, r *runResult) bool {
	return res.Error == "" && res.Intervals == r.sum.Intervals && res.Theta == r.theta &&
		res.Omega == r.sum.MeanOmega && res.CostUSD == r.sum.TotalCostUSD
}

// setupLayers splits the scenario's set-up between the trace layer and the
// rest: each of setupReps rounds, after a warm-up, times trace.NewReplayed
// for the scenario's infrastructure config and then Parse + Build, which
// generates the same traces inside. It reports the medians of the first
// and of the difference, and returns the first, or 0 after recording a
// failure.
func (w singleRun) setupLayers(b *book) float64 {
	var doc struct {
		Infra struct{ Seed int64 } `json:"infra"`
	}
	if err := json.Unmarshal(w.doc, &doc); err != nil {
		b.attempted++
		b.fail("workload document: %v", err)
		return 0
	}
	var gens, builds []float64
	for i := 0; i <= setupReps; i++ {
		runtime.GC()
		start := time.Now()
		_, err := trace.NewReplayed(trace.ReplayedConfig{Seed: doc.Infra.Seed})
		gen := time.Since(start)
		runtime.GC()
		_, setup, berr := w.parseBuild()
		if err == nil {
			err = berr
		}
		if err != nil {
			b.attempted++
			b.fail("set-up: %v", err)
			return 0
		}
		if i > 0 {
			gens = append(gens, gen.Seconds())
			builds = append(builds, (setup - gen).Seconds())
		}
	}
	b.set("trace.gen_s", "s", median(gens))
	b.set("scenario.build_s", "s", median(builds))
	return median(gens)
}

// engineStages are the engine's pipeline stages, as the stage profiler
// names them.
var engineStages = []string{"provision", "faults", "arrivals", "rehome", "flow", "billing", "observe", "check"}

// layerMetrics reports the core, sim, trace, cloud and bench layers from
// layered runs (every wrapper attached) and the plain runs of the same
// scenarios.
func layerMetrics(b *book, plain, layered []*runResult) {
	var intervals, peak, meanVMs float64
	var plainWall, wall, deploy time.Duration
	var adapt, step []time.Duration
	var adaptAlloc, stepAlloc uint64
	var ctl controlCounts
	var cpu, lat, bw int64
	stages := map[string][2]int64{} // name -> wall ns, calls
	for i, r := range layered {
		plainWall += plain[i].wall
		wall += r.wall
		intervals += float64(r.sum.Intervals)
		peak = max(peak, float64(r.sum.PeakVMs))
		meanVMs += r.sum.MeanVMs / float64(len(layered))
		s := r.stats
		deploy += s.deploy
		adapt = append(adapt, s.adapt...)
		step = append(step, s.step...)
		adaptAlloc += s.adaptAllocBytes
		stepAlloc += s.stepAllocBytes
		ctl.calls += s.control.calls
		ctl.acquire += s.control.acquire
		ctl.release += s.control.release
		ctl.move += s.control.move
		ctl.errors += s.control.errors
		cpu += r.provider.cpu
		lat += r.provider.latency
		bw += r.provider.bwidth
		for _, st := range r.profile {
			acc := stages[st.Name]
			stages[st.Name] = [2]int64{acc[0] + st.WallNs, acc[1] + st.Count}
		}
	}
	b.set("trace.cpu_calls_per_interval", "count", float64(cpu)/intervals)
	b.set("trace.latency_calls_per_interval", "count", float64(lat)/intervals)
	b.set("trace.bandwidth_calls_per_interval", "count", float64(bw)/intervals)
	b.set("core.deploy_s", "s", deploy.Seconds())
	b.set("core.adapt_s", "s", total(adapt).Seconds())
	b.set("core.adapt_share", "ratio", total(adapt).Seconds()/wall.Seconds())
	b.set("core.adapt_calls", "count", float64(len(adapt)))
	b.set("core.adapt_p50_ms", "ms", quantile(millis(adapt), 0.5))
	b.set("core.adapt_p95_ms", "ms", quantile(millis(adapt), 0.95))
	b.set("core.alloc_bytes_per_adapt", "B", ratio(float64(adaptAlloc), float64(len(adapt))))
	b.set("core.control_calls", "count", float64(ctl.calls))
	b.set("core.acquire_calls", "count", float64(ctl.acquire))
	b.set("core.release_calls", "count", float64(ctl.release))
	b.set("core.move_calls", "count", float64(ctl.move))
	b.set("core.control_errors", "count", float64(ctl.errors))
	b.set("sim.step_p50_ms", "ms", quantile(millis(step), 0.5))
	b.set("sim.step_p95_ms", "ms", quantile(millis(step), 0.95))
	b.set("sim.step_share", "ratio", total(step).Seconds()/wall.Seconds())
	b.set("sim.alloc_bytes_per_step", "B", ratio(float64(stepAlloc), float64(len(step))))
	for _, name := range engineStages {
		acc := stages[name]
		b.set("sim.stage."+name+"_ms", "ms", ratio(float64(acc[0])/1e6, float64(acc[1])))
	}
	b.set("cloud.peak_vms", "count", peak)
	b.set("cloud.mean_vms", "count", meanVMs)
	b.set("bench.trace_overhead_x", "ratio", wall.Seconds()/plainWall.Seconds())
}

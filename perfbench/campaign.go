package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sweep"
)

// campaignSeeds is the replica count per grid point of sweep-campaign:
// 2 policies x 4 rates x 30 seeds = 240 jobs, enough for a p95 over jobs
// with ten samples beyond it.
const campaignSeeds = 30

// campaign is a workload that is one sweep campaign, run the way dfbench
// -sweep runs a spec: on a pool of one worker per CPU, with a journal.
type campaign struct {
	doc []byte
}

// tmpRoot is where journals go: inside the build directory of the
// checkout the benchmark runs from.
const tmpRoot = ".bench_build/perfbench-tmp"

// plan parses the spec and expands it into jobs, as sweep.Engine.Run does
// before its first job starts.
func (c campaign) plan() (*sweep.Spec, []sweep.Job, time.Duration, error) {
	start := time.Now()
	spec, err := sweep.ParseSpec(c.doc)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, nil, 0, err
	}
	return spec, jobs, time.Since(start), nil
}

// poolRun is one cold campaign on the worker pool followed by a resume
// pass that must be served entirely from the journal.
type poolRun struct {
	wall, resume time.Duration
	report       *sweep.Report
	csv          []byte
	intervals    int
}

// runPool executes spec cold with a fresh journal, then resumes it. The
// tracer, when set, is attached to the cold pass only.
func runPool(spec *sweep.Spec, tracer *obs.Tracer) (*poolRun, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	ctx := context.Background()
	pass := func(tr *obs.Tracer) (*sweep.Report, time.Duration, error) {
		j, err := sweep.OpenJournal(path)
		if err != nil {
			return nil, 0, err
		}
		defer j.Close()
		eng := &sweep.Engine{Workers: runtime.NumCPU(), Journal: j, Tracer: tr}
		start := time.Now()
		rep, err := eng.Run(ctx, spec)
		return rep, time.Since(start), err
	}

	runtime.GC()
	rep, wall, err := pass(tracer)
	if err != nil {
		return nil, err
	}
	if rep.Executed != rep.Total || rep.Errors != 0 {
		return nil, fmt.Errorf("cold pass executed %d of %d jobs, %d errors", rep.Executed, rep.Total, rep.Errors)
	}
	if err := tracer.Flush(); err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		return nil, err
	}
	resumed, resume, err := pass(nil)
	if err != nil {
		return nil, err
	}
	var again bytes.Buffer
	if err := resumed.WriteCSV(&again); err != nil {
		return nil, err
	}
	if resumed.CacheHits != resumed.Total || !bytes.Equal(csv.Bytes(), again.Bytes()) {
		return nil, fmt.Errorf("resume served %d of %d jobs from the journal; aggregate CSV identical: %v",
			resumed.CacheHits, resumed.Total, bytes.Equal(csv.Bytes(), again.Bytes()))
	}
	r := &poolRun{wall: wall, resume: resume, report: rep, csv: csv.Bytes()}
	for _, res := range rep.Results {
		r.intervals += res.Intervals
	}
	return r, nil
}

// runSerial executes every job one at a time through sweep.ExecuteJob,
// the function each pool worker calls, and checks each result against the
// pool's. It returns each job's host time.
func runSerial(jobs []sweep.Job, pool *sweep.Report) ([]time.Duration, error) {
	runtime.GC()
	times := make([]time.Duration, len(jobs))
	for i, job := range jobs {
		start := time.Now()
		res, _ := sweep.ExecuteJob(context.Background(), job, nil, nil, nil, i)
		times[i] = time.Since(start)
		got, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(pool.Results[i])
		if err != nil {
			return nil, err
		}
		if res.Error != "" || !bytes.Equal(got, want) {
			return nil, fmt.Errorf("job %s: serial result %s differs from the pool's %s", job.ID, got, want)
		}
	}
	return times, nil
}

// endToEnd runs as many campaigns, each followed by its resume and the
// serial pass, as fit in d, and always one. Rates are medians over the
// campaigns and latencies pool every job of every serial pass.
func (c campaign) endToEnd(b *book, d time.Duration) {
	var setups []float64
	var jobs []sweep.Job
	var spec *sweep.Spec
	for i := 0; i <= setupReps; i++ {
		runtime.GC()
		s, js, t, err := c.plan()
		if err != nil {
			b.attempted++
			b.fail("plan: %v", err)
			return
		}
		if i > 0 {
			setups = append(setups, t.Seconds())
		}
		spec, jobs = s, js
	}
	b.set("setup_s", "s", median(setups))

	var rates, jobRates, lat []float64
	var first *poolRun
	for fit := newFitter(d); fit.another(); {
		b.attempted += 2 * len(jobs)
		pool, err := runPool(spec, nil)
		if err != nil {
			b.fail("campaign: %v", err)
			continue
		}
		times, err := runSerial(jobs, pool.report)
		if err != nil {
			b.fail("serial pass: %v", err)
			continue
		}
		if !b.check(campaignDigests(pool)) {
			continue
		}
		if first == nil {
			first = pool
		}
		rates = append(rates, float64(pool.intervals)/pool.wall.Seconds())
		jobRates = append(jobRates, float64(len(jobs))/pool.wall.Seconds())
		for i, t := range times {
			lat = append(lat, float64(t)/1e6/float64(pool.report.Results[i].Intervals))
		}
	}
	if first == nil {
		return
	}
	var theta, omega, cost float64
	for _, res := range first.report.Results {
		theta += res.Theta
		omega += res.Omega
		cost += res.CostUSD
	}
	n := float64(len(first.report.Results))
	b.set("intervals_per_s", "1/s", median(rates))
	b.set("jobs_per_s", "1/s", median(jobRates))
	b.set("interval_p50_ms", "ms", quantile(lat, 0.5))
	b.set("interval_p95_ms", "ms", quantile(lat, 0.95))
	b.set("theta", "theta", theta/n)
	b.set("omega_mean", "ratio", omega/n)
	b.set("cost_usd", "USD", cost/n)
	b.set("peak_rss_mb", "MB", peakRSSMB())
	b.notes = append(b.notes, fmt.Sprintf("%d campaigns of %d jobs, %d job samples", len(rates), len(jobs), len(lat)))
}

func campaignDigests(p *poolRun) map[string]string {
	results, err := json.Marshal(p.report.Results)
	if err != nil {
		panic(err) // sweep.Result holds only strings, numbers and bools
	}
	return map[string]string{"aggregate_csv": digest(p.csv), "results": digest(results)}
}

// sweepLayer measures the sweep layer on a spec: a cold pool campaign,
// its resume and a serial pass through sweep.ExecuteJob. It reports the
// sweep.* metrics and returns the pool campaign, or nil after recording a
// failure.
func sweepLayer(b *book, doc []byte) *poolRun {
	spec, jobs, _, err := campaign{doc: doc}.plan()
	b.attempted++
	if err != nil {
		b.fail("plan: %v", err)
		return nil
	}
	pool, err := runPool(spec, nil)
	if err != nil {
		b.fail("campaign: %v", err)
		return nil
	}
	times, err := runSerial(jobs, pool.report)
	if err != nil {
		b.fail("serial pass: %v", err)
		return nil
	}
	serial := float64(len(jobs)) / total(times).Seconds()
	b.set("sweep.serial_jobs_per_s", "1/s", serial)
	b.set("sweep.job_p50_ms", "ms", quantile(millis(times), 0.5))
	b.set("sweep.job_p95_ms", "ms", quantile(millis(times), 0.95))
	b.set("sweep.pool_speedup", "ratio", float64(len(jobs))/pool.wall.Seconds()/serial)
	b.set("sweep.resume_s", "s", pool.resume.Seconds())
	b.set("sweep.cache_hit_ratio", "ratio", 1) // runPool fails the run unless every resumed job hit
	return pool
}

func (c campaign) perLayer(b *book) {
	var doc struct {
		Base json.RawMessage `json:"base"`
	}
	if err := json.Unmarshal(c.doc, &doc); err != nil {
		b.attempted++
		b.fail("workload document: %v", err)
		return
	}
	gen := singleRun{doc: doc.Base}.setupLayers(b)

	plainPool := sweepLayer(b, c.doc)
	if plainPool == nil {
		return
	}
	results := plainPool.report.Results
	b.set("trace.gen_share", "ratio", gen/(b.metrics["sweep.job_p50_ms"].Value/1e3))

	// The same campaign with the tracer on: the aggregate must not change.
	spec, jobs, _, err := c.plan()
	if err != nil {
		b.fail("plan: %v", err)
		return
	}
	b.attempted++
	sink := newDigestWriter()
	tracer := obs.NewTracer(sink)
	tracedPool, err := runPool(spec, tracer)
	if err != nil {
		b.fail("traced campaign: %v", err)
		return
	}
	if !b.check(campaignDigests(plainPool)) || !b.check(campaignDigests(tracedPool)) {
		return
	}
	b.set("obs.events", "count", float64(tracer.Count()))
	b.set("obs.bytes_per_interval", "B", float64(sink.n)/float64(tracedPool.intervals))
	b.set("obs.encode_share", "ratio", 1-plainPool.wall.Seconds()/tracedPool.wall.Seconds())

	// Per-layer attribution inside jobs: the first job of every grid point,
	// run plain and with every wrapper attached, outside the pool.
	var plain, layered []*runResult
	var csvWrite, audWrite time.Duration
	seen := map[string]bool{}
	for i, job := range jobs {
		if seen[job.Group] {
			continue
		}
		seen[job.Group] = true
		w := singleRun{doc: job.Canonical}
		b.attempted += 2
		p, err := w.run(modePlain)
		if err != nil {
			b.fail("job %s: %v", job.ID, err)
			return
		}
		l, err := w.run(modeLayers)
		if err != nil {
			b.fail("job %s: %v", job.ID, err)
			return
		}
		if !sameOutcome(results[i], p) || !maps.Equal(p.digests, l.digests) {
			b.fail("job %s: wrapped run differs from the plain run or the pool", job.ID)
			return
		}
		plain, layered = append(plain, p), append(layered, l)
		csvWrite += p.csvWrite
		audWrite += p.audWrite
	}
	b.set("metrics.csv_write_s", "s", csvWrite.Seconds()/float64(len(plain)))
	b.set("sim.audit_write_s", "s", audWrite.Seconds()/float64(len(plain)))
	layerMetrics(b, plain, layered)
}

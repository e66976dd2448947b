package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// The generators below turn a workload seed into the documents the program
// consumes: scenario JSON for scenario.Parse and a sweep spec for
// sweep.ParseSpec. The seed varies the engine seed (which window of the
// fixed trace pool each VM replays), the rate walk, the fault draws, the
// sweep's replica seeds and small cost/value jitter on every alternate; the
// shape (graph size, rate level, horizon) is fixed per workload, so run
// cost and outcomes stay comparable from seed to seed.

type obj = map[string]any

// jitter is the relative noise the seed puts on alternate costs and values.
const jitter = 0.02

// layeredGraph is a width x depth task-parallel pipeline in the shape of
// dataflow.LayeredGraph: one ingest PE fans out to width columns of depth
// stages each, all converging on one sink, with alts alternates per interior
// PE, their costs scaled by costScale. Each alternate's cost carries up to
// ±jit relative noise and each value up to jit relative reduction (values
// must stay in (0,1]).
func layeredGraph(r *rand.Rand, width, depth, alts int, costScale, jit float64) obj {
	noise := func() float64 { return 1 + jit*(2*r.Float64()-1) }
	less := func() float64 { return 1 - jit*r.Float64() }
	pes := []obj{
		{"name": "ingest", "alternates": []obj{alt("e1", 1, 0.2)}},
		{"name": "sink", "alternates": []obj{alt("e1", 1, 0.3)}},
	}
	var edges [][2]string
	for w := 0; w < width; w++ {
		prev := "ingest"
		for d := 0; d < depth; d++ {
			name := fmt.Sprintf("s%d_%d", w, d)
			ladder := make([]obj, alts)
			for j := range ladder {
				frac := float64(j) / float64(max(alts-1, 1))
				value := (1 - 0.38*frac*frac) * less()
				if j == 0 {
					value = 1 // keep the best alternate at full value
				}
				ladder[j] = alt(fmt.Sprintf("a%d", j+1), value, costScale*1.2*(1-0.4*frac)*noise())
			}
			pes = append(pes, obj{"name": name, "alternates": ladder})
			edges = append(edges, [2]string{prev, name})
			prev = name
		}
		edges = append(edges, [2]string{prev, "sink"})
	}
	return obj{"pes": pes, "edges": edges}
}

func alt(name string, value, cost float64) obj {
	return obj{"name": name, "value": value, "cost": cost, "selectivity": 1}
}

// waveWalk is the paper's data-variability rate: a periodic wave averaged
// with a seeded random walk around mean msg/s. The walk's small step keeps
// every seed's load near the mean.
func waveWalk(r *rand.Rand, mean float64) obj {
	return obj{"kind": "wavewalk", "mean": mean, "periodSec": 1800, "stepFrac": 0.02, "seed": 1 + r.Int63n(1<<30)}
}

// replayed is the replayed-trace infrastructure. Its trace pool is the same
// for every seed; the scenario seed picks the window each VM replays.
var replayed = obj{"kind": "replayed", "seed": 42}

// scaleAdaptive loads the scheduler: the global dynamic adaptive heuristic
// re-plans a 4x4 layered DAG with four alternates per PE every interval
// over a mid-size fleet, for three periods of the rate wave.
func scaleAdaptive(r *rand.Rand) obj {
	return obj{
		"graph":        layeredGraph(r, 4, 4, 4, 1, jitter),
		"rate":         waveWalk(r, 50),
		"infra":        replayed,
		"policy":       obj{"kind": "global"},
		"horizonHours": 1.5,
		"maxVMs":       2048,
		"seed":         1 + r.Int63n(1<<30),
		"audit":        true,
	}
}

// fleetStatic deploys a wide 8x8 DAG once (static global policy) at a rate
// that needs several hundred VMs: after Deploy the scheduler is idle and
// the engine's per-interval stages, above all the network monitor's probe
// over every VM pair, carry the run.
func fleetStatic(r *rand.Rand) obj {
	return obj{
		"graph":        layeredGraph(r, 8, 8, 2, 0.5, jitter),
		"rate":         obj{"kind": "constant", "mean": 100},
		"infra":        replayed,
		"policy":       obj{"kind": "global", "static": true},
		"horizonHours": 3,
		"maxVMs":       2048,
		"seed":         1 + r.Int63n(1<<30),
		"audit":        true,
	}
}

// tenantsTraced shares one fleet among three tenants, one of them driven
// by a session population with bursts and flash crowds. maxVMs sits under
// the natural peak so the fair-share arbiter rules; control faults and the
// resilient wrapper are on, and auditing feeds the decision stream.
func tenantsTraced(r *rand.Rand) obj {
	sessions := obj{
		"model":             "open",
		"arrivalPerSec":     0.05,
		"meanSessionSec":    600,
		"msgPerSessionSec":  1,
		"diurnal":           0.3,
		"diurnalPeriodSec":  14400,
		"burstFactor":       2,
		"calmResidencySec":  1800,
		"burstResidencySec": 600,
		"flashProb":         0.002,
		"flashFactor":       3,
		"flashSec":          900,
	}
	return obj{
		"tenants": []obj{
			{"name": "alerts", "priority": 2, "omegaFloor": 0.85,
				"graph": layeredGraph(r, 3, 3, 3, 1, jitter), "rate": obj{"kind": "constant", "mean": 30}},
			{"name": "analytics",
				"graph": layeredGraph(r, 4, 3, 3, 1, jitter), "rate": waveWalk(r, 30)},
			{"name": "app", "omegaFloor": 0.7,
				"graph": layeredGraph(r, 3, 2, 3, 1, jitter),
				"rate":  obj{"kind": "sessions", "seed": 1 + r.Int63n(1<<30), "sessions": sessions}},
		},
		"infra":        replayed,
		"policy":       obj{"kind": "global", "resilient": true},
		"control":      obj{"meanBootSec": 90, "acquireFailProb": 0.1, "faultFreeSec": 600, "seed": 1 + r.Int63n(1<<30)},
		"horizonHours": 4,
		"maxVMs":       160,
		"seed":         1 + r.Int63n(1<<30),
		"audit":        true,
	}
}

// sweepCampaign is a grid of short jobs on an eval-sized graph: two
// policies x four rates x jobSeeds replica seeds, about one simulated hour
// each, so per-job setup (trace generation, build) weighs as much as the
// run itself. The graph carries no jitter: every job would share it, so it
// would shift the whole campaign; the seed varies the replica seeds only.
func sweepCampaign(seed int64, jobSeeds int) obj {
	r := rand.New(rand.NewSource(seed))
	base := obj{
		"graph":        layeredGraph(r, 2, 1, 5, 1, 0),
		"rate":         obj{"kind": "wave", "mean": 10, "amplitude": 4, "periodSec": 1800},
		"infra":        replayed,
		"policy":       obj{"kind": "global"},
		"horizonHours": 1,
		"seed":         1,
	}
	var rates []obj
	for _, mean := range []int{5, 10, 15, 20} {
		rates = append(rates, obj{"label": fmt.Sprint(mean), "patch": obj{"rate": obj{"mean": mean}}})
	}
	seeds := make([]int64, jobSeeds)
	for i := range seeds {
		seeds[i] = 1 + r.Int63n(1<<30)
	}
	return obj{
		"name": fmt.Sprintf("perfbench-%d", seed),
		"base": base,
		"axes": []obj{
			{"name": "policy", "values": []obj{
				{"label": "global", "patch": obj{"policy": obj{"kind": "global"}}},
				{"label": "local", "patch": obj{"policy": obj{"kind": "local"}}},
			}},
			{"name": "rate", "values": rates},
		},
		"seeds": seeds,
	}
}

func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // only maps, slices, strings and numbers reach here
	}
	return b
}

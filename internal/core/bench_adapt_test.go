package core

import (
	"context"
	"fmt"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// timedAdapt runs the benchmark timer only inside Adapt, so a benchmark op
// is one scheduler decision and the engine step after it is not counted.
type timedAdapt struct {
	*Heuristic
	b *testing.B
}

func (t timedAdapt) Adapt(v *sim.View, act sim.Control) error {
	t.b.StartTimer()
	err := t.Heuristic.Adapt(v, act)
	t.b.StopTimer()
	return err
}

// BenchmarkAdaptGlobal measures one Adapt call of the global adaptive
// heuristic on a warmed engine: a layered DAG with 2 alternates per PE under
// a 1 msg/s ±50% wave on replayed infrastructure, run for one simulated
// hour before timing starts. Each op advances the engine one interval and
// times only the Adapt before it, so the fleet, the queues and the monitor
// keep evolving as in a real run.
func BenchmarkAdaptGlobal(b *testing.B) {
	for _, bc := range []struct{ pes, width, depth int }{
		{100, 14, 7},
		{500, 83, 6},
	} {
		b.Run(fmt.Sprintf("pes=%d", bc.pes), func(b *testing.B) {
			b.StopTimer()
			g := dataflow.LayeredGraph(bc.width, bc.depth, 2)
			if g.N() != bc.pes {
				b.Fatalf("graph has %d PEs, want %d", g.N(), bc.pes)
			}
			obj, err := PaperSigma(g, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
			wave, err := rates.NewWave(1, 0.5, 1800)
			if err != nil {
				b.Fatal(err)
			}
			const interval, warm = 60, 3600
			e, err := sim.NewEngine(sim.Config{
				Graph:       g,
				Menu:        cloud.MustMenu(cloud.AWS2013Classes()),
				Perf:        trace.MustReplayed(trace.ReplayedConfig{Seed: 1}),
				Inputs:      map[int]rates.Profile{0: wave},
				IntervalSec: interval,
				HorizonSec:  warm + interval*int64(b.N),
				MaxVMs:      4096,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := e.RunUntil(ctx, h, warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			timed := timedAdapt{Heuristic: h, b: b}
			for i := 0; i < b.N; i++ {
				if err := e.RunUntil(ctx, timed, e.Now()+interval); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(e.Fleet().Active())), "vms")
		})
	}
}

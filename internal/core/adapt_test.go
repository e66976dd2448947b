package core

import (
	"fmt"
	"reflect"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

func TestTargetOmegaBoostsWhenSlipping(t *testing.T) {
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	// Comfortable: target is the constraint plus margin.
	if got := h.targetOmega(0.9); got != 0.75 {
		t.Fatalf("comfortable target = %v", got)
	}
	// Slipping: boost proportional to the deficit, capped at 1.
	if got := h.targetOmega(0.6); got != 0.95 {
		t.Fatalf("slipping target = %v", got)
	}
	if got := h.targetOmega(0.2); got != 1.0 {
		t.Fatalf("deep-slip target = %v", got)
	}
}

// alternateBandGraph has a single interior PE whose value/cost ratios rank
// lean > mid > rich, so Alg. 1 deploys lean and upgrades are available.
func alternateBandGraph() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work",
			dataflow.Alt("rich", 1.0, 1.0, 1),
			dataflow.Alt("mid", 0.9, 0.6, 1),
			dataflow.Alt("lean", 0.7, 0.3, 1)).
		AddPE("sink", dataflow.Alt("e", 1, 0.1, 1)).
		Chain("src", "work", "sink").
		MustBuild()
}

// richFirstGraph ranks rich > mid > lean by value/cost, so Alg. 1 deploys
// rich and downgrades are available under pressure.
func richFirstGraph() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work",
			dataflow.Alt("rich", 1.0, 0.8, 1),
			dataflow.Alt("mid", 0.8, 0.7, 1),
			dataflow.Alt("lean", 0.55, 0.6, 1)).
		AddPE("sink", dataflow.Alt("e", 1, 0.1, 1)).
		Chain("src", "work", "sink").
		MustBuild()
}

func TestAlternateStageDowngradesWhenUnderProvisioned(t *testing.T) {
	// Degraded cloud + fleet cap: the run sits under the throughput band;
	// after a few alternate stages, "work" must run a cheaper alternate
	// than the deployment choice.
	g := richFirstGraph()
	obj, err := PaperSigma(g, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	prof, _ := rates.NewConstant(20)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       &trace.Scaled{Base: trace.NewIdeal(), Scale: 0.45},
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 2 * 3600,
		MaxVMs:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(h); err != nil {
		t.Fatal(err)
	}
	deploySel, _ := SelectAlternates(g, Global)
	finalSel := e.Selection()
	deployCost := g.PEs[1].Alternates[deploySel[1]].Cost
	finalCost := g.PEs[1].Alternates[finalSel[1]].Cost
	if finalCost >= deployCost {
		t.Fatalf("no downgrade: deploy cost %v, final %v", deployCost, finalCost)
	}
}

func TestAlternateStageUpgradesWhenOverProvisioned(t *testing.T) {
	// Ideal cloud, trivial load: the run sits above the band and the
	// stage buys value back up to the richest alternate that fits.
	g := alternateBandGraph()
	obj, err := PaperSigma(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Local strategy: xlarge-only allocation leaves slack ECU on work's
	// core, so an upgrade fits the available resources.
	h := MustHeuristic(Options{Strategy: Local, Dynamic: true, Adaptive: true, Objective: obj})
	prof, _ := rates.NewConstant(2)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       trace.NewIdeal(),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 2 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(h); err != nil {
		t.Fatal(err)
	}
	// Deployment picks the best ratio (lean: 0.7/0.3 = 2.33); with ample
	// headroom the stage upgrades toward rich.
	finalSel := e.Selection()
	deploySel, _ := SelectAlternates(g, Global)
	finalVal := g.PEs[1].Alternates[finalSel[1]].Value
	deployVal := g.PEs[1].Alternates[deploySel[1]].Value
	if finalVal <= deployVal {
		t.Fatalf("no upgrade: deploy value %v, final %v", deployVal, finalVal)
	}
}

func TestReleaseIdleHonoursBoundaryWindow(t *testing.T) {
	g := alternateBandGraph()
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	prof, _ := rates.NewConstant(2)
	cfg := sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 3600,
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj})
	v := sim.NewView(e)
	act := sim.NewActions(e)
	// Acquire an idle VM at t=0; far from its boundary it must survive
	// the release pass.
	id, err := act.AcquireVM("m1.small")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.releaseIdle(v, act); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.VM(id); !ok {
		t.Fatal("idle VM released far from its hour boundary")
	}
	// With a window covering the whole hour it goes immediately.
	h2 := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true,
		Objective: obj, ReleaseWindowSec: 3600})
	if err := h2.releaseIdle(v, act); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.VM(id); ok {
		t.Fatal("idle VM survived a whole-hour release window")
	}
}

func TestConsolidateMergesLightVMs(t *testing.T) {
	g := alternateBandGraph()
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	prof, _ := rates.NewConstant(2)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := sim.NewView(e)
	act := sim.NewActions(e)
	// Two xlarges, one core each: consolidation should empty one.
	a, _ := act.AcquireVM("m1.xlarge")
	b, _ := act.AcquireVM("m1.xlarge")
	if err := act.AssignCores(0, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := act.AssignCores(1, b, 1); err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj})
	if err := h.consolidate(v, act); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, vm := range v.ActiveVMs() {
		if vm.UsedCores == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("consolidation emptied %d VMs, want 1", empty)
	}
	// Both PEs still have their core.
	if v.AssignedCores(0) != 1 || v.AssignedCores(1) != 1 {
		t.Fatalf("cores lost: %d / %d", v.AssignedCores(0), v.AssignedCores(1))
	}
}

// TestConsolidateSpotGuard pins the spot guard: on-demand cores never move
// onto a preemptible VM, even when it is the only destination with room,
// while spot cores may move onto on-demand capacity.
func TestConsolidateSpotGuard(t *testing.T) {
	h := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true,
		Objective: Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}})
	newEngine := func(t *testing.T) (*sim.Engine, *recordingControl) {
		prof, _ := rates.NewConstant(2)
		e, err := sim.NewEngine(sim.Config{
			Graph:      alternateBandGraph(),
			Menu:       spotMenu(),
			Inputs:     map[int]rates.Profile{0: prof},
			HorizonSec: 3600,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, &recordingControl{Control: sim.NewActions(e)}
	}
	mustAcquire := func(t *testing.T, act sim.Control, class string, pe, cores int) int {
		id, err := act.AcquireVM(class)
		if err != nil {
			t.Fatal(err)
		}
		if cores > 0 {
			if err := act.AssignCores(pe, id, cores); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}

	t.Run("on-demand victim stays off spot", func(t *testing.T) {
		e, act := newEngine(t)
		od := mustAcquire(t, act, "m1.xlarge", 0, 1)
		mustAcquire(t, act, "m1.xlarge-spot", 0, 0)
		act.calls = nil
		if err := h.consolidate(sim.NewView(e), act); err != nil {
			t.Fatal(err)
		}
		if len(act.calls) != 0 {
			t.Fatalf("on-demand cores moved onto a preemptible VM: %q", act.calls)
		}
		if vm, _ := sim.NewView(e).VM(od); vm.UsedCores != 1 {
			t.Fatalf("on-demand victim holds %d cores, want 1", vm.UsedCores)
		}
	})

	t.Run("spot victim moves onto on-demand", func(t *testing.T) {
		e, act := newEngine(t)
		od := mustAcquire(t, act, "m1.xlarge", 0, 2)
		spot := mustAcquire(t, act, "m1.xlarge-spot", 1, 1)
		act.calls = nil
		if err := h.consolidate(sim.NewView(e), act); err != nil {
			t.Fatal(err)
		}
		want := []string{
			fmt.Sprintf("assign-cores pe=1 vm=%d n=1", od),
			fmt.Sprintf("unassign-cores pe=1 vm=%d n=1", spot),
		}
		if !reflect.DeepEqual(act.calls, want) {
			t.Fatalf("calls = %q, want %q", act.calls, want)
		}
	})
}

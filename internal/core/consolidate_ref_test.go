package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
)

// consolidateRef is the straightforward O(V³) consolidation the indexed
// Heuristic.consolidate must match call for call: it re-scans every PE's
// assignments per victim, keeps the free-core snapshot in a map, and looks
// each destination's class up by a linear scan. It is the test oracle for
// TestConsolidateMatchesReference, not a runtime path.
func consolidateRef(v *sim.View, act sim.Control) error {
	vms := v.ActiveVMs()
	sort.SliceStable(vms, func(i, j int) bool {
		ui := float64(vms[i].UsedCores) / float64(vms[i].Class.Cores)
		uj := float64(vms[j].UsedCores) / float64(vms[j].Class.Cores)
		return ui < uj
	})
	g := v.Graph()
	for _, victim := range vms {
		if victim.UsedCores == 0 {
			continue
		}
		// Gather the victim's chunks.
		type chunk struct{ pe, cores int }
		var chunks []chunk
		for pe := 0; pe < g.N(); pe++ {
			for _, a := range v.Assignments(pe) {
				if a.VMID == victim.ID {
					chunks = append(chunks, chunk{pe: pe, cores: a.Cores})
				}
			}
		}
		// Plan destinations using a free-core snapshot; iterate candidate
		// VMs in id order so tie-breaking is deterministic.
		free := map[int]int{}
		var dstIDs []int
		for _, vm := range vms {
			if vm.ID == victim.ID {
				continue
			}
			free[vm.ID] = vm.FreeCores
			dstIDs = append(dstIDs, vm.ID)
		}
		sort.Ints(dstIDs)
		type move struct{ pe, dst, cores int }
		var moves []move
		ok := true
		for _, c := range chunks {
			ecu := float64(c.cores) * victim.Class.CoreSpeed
			bestDst, bestNeed := -1, 0
			for _, dst := range dstIDs {
				dstClass := classOfRef(vms, dst)
				// Never consolidate on-demand capacity onto spot VMs: the
				// constraint-critical base must survive reclamations.
				if dstClass.Preemptible && !victim.Class.Preemptible {
					continue
				}
				f := free[dst]
				need := coresNeeded(ecu, dstClass)
				if need == 0 {
					need = 1
				}
				if need <= f && (bestDst < 0 || f-need < free[bestDst]-bestNeed) {
					bestDst, bestNeed = dst, need
				}
			}
			if bestDst < 0 {
				ok = false
				break
			}
			free[bestDst] -= bestNeed
			moves = append(moves, move{pe: c.pe, dst: bestDst, cores: bestNeed})
		}
		if !ok {
			continue
		}
		for i, m := range moves {
			if err := act.AssignCores(m.pe, m.dst, m.cores); err != nil {
				return err
			}
			if err := act.UnassignCores(chunks[i].pe, victim.ID, chunks[i].cores); err != nil {
				return err
			}
		}
		return nil // one consolidation per stage damps churn
	}
	return nil
}

func classOfRef(vms []sim.VMInfo, id int) *cloud.Class {
	for _, vm := range vms {
		if vm.ID == id {
			return vm.Class
		}
	}
	return nil
}

// recordingControl forwards every call to the engine's control surface and
// records the mutating ones in order.
type recordingControl struct {
	sim.Control
	calls []string
}

func (r *recordingControl) record(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

func (r *recordingControl) SelectAlternate(pe, alt int) error {
	r.record("select-alternate pe=%d alt=%d", pe, alt)
	return r.Control.SelectAlternate(pe, alt)
}

func (r *recordingControl) AcquireVM(className string) (int, error) {
	r.record("acquire-vm %s", className)
	return r.Control.AcquireVM(className)
}

func (r *recordingControl) ReleaseVM(vmID int) error {
	r.record("release-vm vm=%d", vmID)
	return r.Control.ReleaseVM(vmID)
}

func (r *recordingControl) AssignCores(pe, vmID, n int) error {
	r.record("assign-cores pe=%d vm=%d n=%d", pe, vmID, n)
	return r.Control.AssignCores(pe, vmID, n)
}

func (r *recordingControl) UnassignCores(pe, vmID, n int) error {
	r.record("unassign-cores pe=%d vm=%d n=%d", pe, vmID, n)
	return r.Control.UnassignCores(pe, vmID, n)
}

func (r *recordingControl) MovePE(pe, fromVM, toVM, n int) error {
	r.record("move-pe pe=%d from=%d to=%d n=%d", pe, fromVM, toVM, n)
	return r.Control.MovePE(pe, fromVM, toVM, n)
}

// mixedSpeedMenu mixes core counts and core speeds so chunk conversion
// (ceil(n*s/s')) changes core counts, and adds a preemptible twin of every
// class so the spot guard is live.
func mixedSpeedMenu() *cloud.Menu {
	return cloud.MustMenu(cloud.WithSpotMarket([]*cloud.Class{
		{Name: "c1", Cores: 1, CoreSpeed: 1.0, NetMbps: 100, PricePerHour: 0.06},
		{Name: "c2", Cores: 2, CoreSpeed: 1.5, NetMbps: 100, PricePerHour: 0.18},
		{Name: "c4", Cores: 4, CoreSpeed: 2.0, NetMbps: 100, PricePerHour: 0.48},
		{Name: "c8", Cores: 8, CoreSpeed: 2.5, NetMbps: 100, PricePerHour: 1.20},
	}, 0.3))
}

// randomFleet builds an engine on a random layered DAG and fills a random
// fleet through the control surface. Every draw comes from seed, so two
// calls with one seed yield identical engines. A per-fleet fill level
// spans nearly empty fleets (everything fits somewhere) to nearly full ones
// (victims that fit nowhere); few classes and small core counts make
// equal-utilisation ties common; VMs host several PEs (multi-chunk
// victims).
func randomFleet(t *testing.T, seed int64) *sim.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dataflow.LayeredGraph(1+rng.Intn(4), 1+rng.Intn(4), 1)
	in, err := rates.NewConstant(1)
	if err != nil {
		t.Fatal(err)
	}
	menu := mixedSpeedMenu()
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       menu,
		Inputs:     map[int]rates.Profile{0: in},
		HorizonSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	act := sim.NewActions(e)
	classes := menu.Classes()
	fill := 0.1 + 0.9*rng.Float64()
	spotFrac := rng.Float64() * 0.6
	nVMs := 2 + rng.Intn(24)
	for i := 0; i < nVMs; i++ {
		var c *cloud.Class
		for c == nil || c.Preemptible != (rng.Float64() < spotFrac) {
			c = classes[rng.Intn(len(classes))]
		}
		id, err := act.AcquireVM(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < c.Cores; k++ {
			if rng.Float64() >= fill {
				continue
			}
			if err := act.AssignCores(rng.Intn(g.N()), id, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// consolidateCoverage counts the situations a property run reached, so the
// test can insist its generator covers them.
type consolidateCoverage struct {
	ties, multiChunk, fitNowhere, converted, spotVictims int
}

// observe classifies one round against the fleet as it stood before it.
func (cov *consolidateCoverage) observe(vms []sim.VMInfo, calls []string) {
	seen := map[float64]bool{}
	firstVictim, firstU := -1, 2.0
	for _, vm := range vms {
		if vm.UsedCores == 0 {
			continue
		}
		u := float64(vm.UsedCores) / float64(vm.Class.Cores)
		if seen[u] {
			cov.ties++
		}
		seen[u] = true
		if u < firstU {
			firstVictim, firstU = vm.ID, u
		}
	}
	if firstVictim < 0 {
		return
	}
	unassigns := 0
	victim := -1
	for _, c := range calls {
		var pe, vm, n int
		if _, err := fmt.Sscanf(c, "unassign-cores pe=%d vm=%d n=%d", &pe, &vm, &n); err == nil {
			unassigns++
			victim = vm
		}
	}
	if unassigns >= 2 {
		cov.multiChunk++
	}
	if victim != firstVictim {
		cov.fitNowhere++ // the least-utilised victim could not be placed
	}
	for _, vm := range vms {
		if vm.ID == victim && vm.Class.Preemptible {
			cov.spotVictims++
		}
	}
	for i := 0; i+1 < len(calls); i += 2 {
		var pe, dst, n, pe2, src, m int
		if _, err := fmt.Sscanf(calls[i], "assign-cores pe=%d vm=%d n=%d", &pe, &dst, &n); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(calls[i+1], "unassign-cores pe=%d vm=%d n=%d", &pe2, &src, &m); err == nil && n != m {
			cov.converted++
		}
	}
}

// TestConsolidateMatchesReference drives Heuristic.consolidate and the
// reference implementation over 240 random fleets, each on its own pair of
// identical engines, for up to four consecutive rounds, and requires the
// same AssignCores/UnassignCores sequence in every round.
func TestConsolidateMatchesReference(t *testing.T) {
	h := MustHeuristic(Options{Strategy: Global, Adaptive: true,
		Objective: Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}})
	var cov consolidateCoverage
	rounds := 0
	for seed := int64(0); seed < 240; seed++ {
		got, want := randomFleet(t, seed), randomFleet(t, seed)
		gv, wv := sim.NewView(got), sim.NewView(want)
		for round := 0; round < 4; round++ {
			before := wv.ActiveVMs()
			gc := &recordingControl{Control: sim.NewActions(got)}
			wc := &recordingControl{Control: sim.NewActions(want)}
			if err := h.consolidate(gv, gc); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if err := consolidateRef(wv, wc); err != nil {
				t.Fatalf("seed %d round %d: reference: %v", seed, round, err)
			}
			if !reflect.DeepEqual(gc.calls, wc.calls) {
				t.Fatalf("seed %d round %d: calls diverge\n got  %q\n want %q", seed, round, gc.calls, wc.calls)
			}
			cov.observe(before, wc.calls)
			rounds++
			if len(wc.calls) == 0 {
				break
			}
		}
	}
	t.Logf("%d rounds; coverage %+v", rounds, cov)
	if cov.ties == 0 || cov.multiChunk == 0 || cov.fitNowhere == 0 || cov.converted == 0 || cov.spotVictims == 0 {
		t.Fatalf("generator missed a case: %+v", cov)
	}
}

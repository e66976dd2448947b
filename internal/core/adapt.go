package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// decisionSink returns the provenance side-channel of the control surface,
// or nil when none is attached (or nothing observes it) — the nil check
// keeps untraced runs free of provenance assembly.
func decisionSink(act sim.Control) sim.DecisionSink {
	if ds, ok := act.(sim.DecisionSink); ok && ds.DecisionsObserved() {
		return ds
	}
	return nil
}

// resourceStage is Alg. 2's resource re-deployment: grow bottleneck PEs
// while the required capacity is not met, shrink over-provisioned PEs when
// there is comfortable headroom, consolidate (global only), and release
// idle VMs as they approach their paid hour boundary.
func (h *Heuristic) resourceStage(v *sim.View, act sim.Control) error {
	sink := decisionSink(act)
	g := v.Graph()
	sel := v.Selection()
	demand, err := h.demandECU(v, sel)
	if err != nil {
		return err
	}
	target := h.targetOmega(v.MeanOmega())
	eff := h.effectiveECU(v)

	required := make([]float64, g.N())
	for pe := range required {
		required[pe] = demand[pe] * target
	}

	// Latency QoS: when a mean-latency bound is set, size each PE to also
	// drain its current backlog within the bound — capacity beyond the
	// arrival-rate requirement, proportional to the queue.
	if bound := h.opts.Objective.LatencyHatSec; bound > 0 && v.EstimatedLatencySec() > bound/2 {
		for pe := range required {
			if backlog := v.Backlog(pe); backlog > 0 {
				required[pe] += backlog / bound * sel.Alt(g, pe).Cost
			}
		}
	}

	// Scale up: repeatedly grow the PE with the worst capacity ratio.
	// With UseSpot, capacity beyond the PE's constraint-critical base
	// (demand * OmegaHat, on-demand) spills onto the spot market.
	grown := 0
	for grown < h.opts.MaxGrowPerInterval {
		bottleneck, worst := -1, 1e18
		for pe := range required {
			if required[pe] <= 1e-12 {
				continue
			}
			r := eff[pe] / required[pe]
			if r < 1-1e-9 && r < worst {
				worst = r
				bottleneck = pe
			}
		}
		if bottleneck < 0 {
			break
		}
		spill := h.opts.UseSpot &&
			eff[bottleneck] >= demand[bottleneck]*h.opts.Objective.OmegaHat
		var dec *obs.Decision
		if sink != nil {
			spillF := 0.0
			if spill {
				spillF = 1
			}
			dec = &obs.Decision{
				Kind: "scale-up", PE: bottleneck,
				Inputs: map[string]float64{
					"meanOmega":    v.MeanOmega(),
					"targetOmega":  target,
					"demandEcu":    demand[bottleneck],
					"requiredEcu":  required[bottleneck],
					"effectiveEcu": eff[bottleneck],
					"spill":        spillF,
				},
			}
		}
		added, err := h.addCore(v, act, bottleneck, required[bottleneck]-eff[bottleneck], spill, dec)
		if err != nil {
			return err
		}
		if dec != nil {
			sink.Decide(*dec)
		}
		if added <= 0 {
			break // could not add (fleet cap); stop rather than spin
		}
		eff[bottleneck] += added
		grown++
	}

	// Scale down: only with hysteresis headroom, and never below one core.
	for pe := range required {
		relax := required[pe] + demand[pe]*h.opts.Hysteresis
		for eff[pe] > relax {
			var dec *obs.Decision
			if sink != nil {
				dec = &obs.Decision{
					Kind: "scale-down", PE: pe,
					Inputs: map[string]float64{
						"meanOmega":    v.MeanOmega(),
						"demandEcu":    demand[pe],
						"requiredEcu":  required[pe],
						"relaxEcu":     relax,
						"effectiveEcu": eff[pe],
						"hysteresis":   h.opts.Hysteresis,
					},
				}
			}
			removed, err := h.removeCore(v, act, pe, eff[pe]-relax, dec)
			if err != nil {
				return err
			}
			// A stuck shrink would re-emit an identical no-action decision
			// every interval; only record shrinks that moved a core.
			if dec != nil && removed > 0 {
				sink.Decide(*dec)
			}
			if removed <= 0 {
				break
			}
			eff[pe] -= removed
		}
	}

	if h.opts.Strategy == Global && !h.opts.NoConsolidate {
		if err := h.consolidate(v, act); err != nil {
			return err
		}
	}
	return h.releaseIdle(v, act)
}

// addCore gives the PE one more core: a free core on a VM already hosting
// it, then the best free core anywhere (already paid for — effectively
// free), then a newly acquired VM — largest class under the local strategy,
// the smallest class covering the remaining deficit under global (best
// fit); with spill set and a spot market on the menu, the new VM is the
// cheapest preemptible class instead. It returns the effective ECU added
// (0 when the fleet cap blocks). A non-nil dec is filled with the
// candidates weighed, their scores, and why the losers lost.
func (h *Heuristic) addCore(v *sim.View, act sim.Control, pe int, deficitECU float64, spill bool, dec *obs.Decision) (float64, error) {
	// Both lists are in VM id order, so hosting advances in step with the
	// VM scan.
	h.asgBuf = v.AssignmentsInto(pe, h.asgBuf[:0])
	hosting := h.asgBuf
	h.vmBuf = v.ActiveVMsInto(h.vmBuf[:0])
	var best sim.VMInfo
	found := false
	bestScore := -1.0
	for _, vm := range h.vmBuf {
		if vm.FreeCores <= 0 {
			continue
		}
		for len(hosting) > 0 && hosting[0].VMID < vm.ID {
			hosting = hosting[1:]
		}
		score := vm.Class.CoreSpeed * vm.CPUCoeff
		if len(hosting) > 0 && hosting[0].VMID == vm.ID {
			score *= 4 // strongly prefer collocating with the PE's instances
		}
		if dec != nil {
			dec.Options = append(dec.Options, obs.DecisionOption{
				Name: fmt.Sprintf("free core on vm-%d (%s)", vm.ID, vm.Class.Name), Score: score})
		}
		if score > bestScore {
			bestScore = score
			best = vm
			found = true
		}
	}
	if found {
		if err := act.AssignCores(pe, best.ID, 1); err != nil {
			return 0, err
		}
		if dec != nil {
			chosen := fmt.Sprintf("free core on vm-%d (%s)", best.ID, best.Class.Name)
			for i := range dec.Options {
				if dec.Options[i].Name != chosen {
					dec.Options[i].Rejected = "outscored"
				}
			}
			dec.Chosen = fmt.Sprintf("assign-cores vm-%d", best.ID)
			dec.Reason = "already-paid free core available"
		}
		return best.Class.CoreSpeed * best.CPUCoeff, nil
	}
	// Capacity that is still provisioning counts against the deficit:
	// acquiring again while a boot is in flight double-provisions. Reserve a
	// core on the pending VM for this PE so it starts working the moment it
	// boots, and report no effective capacity added — the grow loop then
	// waits for the boot instead of stacking further acquisitions.
	for _, p := range v.PendingVMs() {
		if p.UsedCores >= p.Class.Cores {
			continue
		}
		if err := act.AssignCores(pe, p.ID, 1); err != nil {
			return 0, err
		}
		if dec != nil {
			dec.Chosen = fmt.Sprintf("reserve core on pending vm-%d (%s)", p.ID, p.Class.Name)
			dec.Reason = "capacity already provisioning; wait for the boot instead of stacking acquisitions"
		}
		return 0, nil
	}
	// Acquire a new VM. Policies plan on the on-demand view; spot classes
	// are only touched through the explicit spill path.
	menu := v.Menu()
	onDemand := menu.OnDemand()
	class := onDemand.Largest()
	if h.opts.Strategy == Global {
		if deficitECU < class.CoreSpeed {
			deficitECU = class.CoreSpeed
		}
		if c := onDemand.SmallestFitting(deficitECU); c != nil {
			class = c
		}
	}
	if spill {
		need := deficitECU
		if need < class.CoreSpeed {
			need = class.CoreSpeed
		}
		if c := menu.CheapestPreemptibleFitting(need); c != nil {
			class = c
		}
	}
	if dec != nil {
		considered := menu.Classes()
		if !spill {
			considered = onDemand.Classes()
		}
		for _, c := range considered {
			opt := obs.DecisionOption{Name: c.Name, Score: c.CoreSpeed}
			switch {
			case c.Name == class.Name:
				// chosen
			case spill && !c.Preemptible:
				opt.Rejected = "spill targets the spot market"
			case c.CoreSpeed < deficitECU:
				opt.Rejected = "below the remaining deficit"
			default:
				opt.Rejected = "not the best fit"
			}
			dec.Options = append(dec.Options, opt)
		}
	}
	id, err := act.AcquireVM(class.Name)
	if err != nil {
		// Fleet cap reached: degrade gracefully, the next interval retries.
		if dec != nil {
			dec.Reason = fmt.Sprintf("acquire %s failed (%v); retry next interval", class.Name, err)
		}
		return 0, nil
	}
	if err := act.AssignCores(pe, id, 1); err != nil {
		return 0, err
	}
	if dec != nil {
		dec.Chosen = fmt.Sprintf("acquire %s (vm-%d)", class.Name, id)
		if spill {
			dec.Reason = "beyond the constraint-critical base; spill onto the spot market"
		} else if h.opts.Strategy == Global {
			dec.Reason = "smallest on-demand class covering the deficit"
		} else {
			dec.Reason = "largest on-demand class (local strategy)"
		}
	}
	return class.CoreSpeed, nil
}

// removeCore takes one core away from the PE, preferring the emptiest
// hosting VM so that instances consolidate and whole VMs free up. It never
// removes the PE's last core, and never removes a core whose effective
// contribution exceeds maxRemove (that would undershoot the requirement).
// It returns the effective ECU removed (0 when nothing is safely
// removable). A non-nil dec is filled with the shed candidates in order
// and why the skipped ones were kept.
func (h *Heuristic) removeCore(v *sim.View, act sim.Control, pe int, maxRemove float64, dec *obs.Decision) (float64, error) {
	h.asgBuf = v.AssignmentsInto(pe, h.asgBuf[:0])
	as := h.asgBuf
	totalCores := 0
	for _, a := range as {
		totalCores += a.Cores
	}
	if totalCores <= 1 {
		if dec != nil {
			dec.Reason = "last core protected"
		}
		return 0, nil
	}
	type option struct {
		vmID     int
		contrib  float64
		usedOnVM int
		spot     bool
	}
	var opts []option
	for _, a := range as {
		vm, ok := v.VM(a.VMID)
		if !ok {
			continue
		}
		opts = append(opts, option{
			vmID:     a.VMID,
			contrib:  vm.Class.CoreSpeed * vm.CPUCoeff,
			usedOnVM: vm.UsedCores,
			spot:     vm.Class.Preemptible,
		})
	}
	sort.SliceStable(opts, func(i, j int) bool {
		// Shed spot headroom before on-demand capacity, then prefer
		// emptying the emptiest VM, then the weakest core.
		if opts[i].spot != opts[j].spot {
			return opts[i].spot
		}
		if opts[i].usedOnVM != opts[j].usedOnVM {
			return opts[i].usedOnVM < opts[j].usedOnVM
		}
		return opts[i].contrib < opts[j].contrib
	})
	for i, o := range opts {
		if o.contrib > maxRemove+1e-9 {
			if dec != nil {
				dec.Options = append(dec.Options, obs.DecisionOption{
					Name:     fmt.Sprintf("core on vm-%d", o.vmID),
					Score:    o.contrib,
					Rejected: "contribution exceeds removable headroom",
				})
			}
			continue
		}
		if err := act.UnassignCores(pe, o.vmID, 1); err != nil {
			return 0, err
		}
		if dec != nil {
			dec.Options = append(dec.Options, obs.DecisionOption{
				Name: fmt.Sprintf("core on vm-%d", o.vmID), Score: o.contrib})
			for _, rest := range opts[i+1:] {
				dec.Options = append(dec.Options, obs.DecisionOption{
					Name:     fmt.Sprintf("core on vm-%d", rest.vmID),
					Score:    rest.contrib,
					Rejected: "later in the shed order (spot first, emptiest VM, weakest core)",
				})
			}
			dec.Chosen = fmt.Sprintf("unassign-cores vm-%d", o.vmID)
			dec.Reason = "hysteresis headroom above the requirement"
		}
		return o.contrib, nil
	}
	if dec != nil {
		dec.Reason = "every candidate core contributes more than the removable headroom"
	}
	return 0, nil
}

// consolidateScratch is consolidate's per-call index, kept on the Heuristic
// so its buffers are reused from one call to the next. It is not state.
type consolidateScratch struct {
	pos    []int     // VM id -> index in the id-ordered VM table
	chunks [][]chunk // table index -> the VM's chunks, in PE order
	order  []int     // table indices in victim (utilisation) order
	free   []int     // table index -> free cores left in the plan
	moves  []move
}

// chunk is one PE's cores on one VM.
type chunk struct{ pe, cores int }

// move is one planned chunk transfer onto VM dst.
type move struct{ pe, dst, cores int }

// consolidate (global strategy) empties at most one lightly used VM per
// stage by moving its core chunks into free cores elsewhere, so the idle VM
// can be released at its hour boundary. Chunk conversion preserves rated
// capacity: n cores at speed s need ceil(n*s/s') cores at speed s'.
//
// Victims are tried least utilised first (stable over VM id). Each chunk
// goes to the best-fitting destination — the fewest free cores left over,
// the lowest VM id on a tie — never from an on-demand victim onto a
// preemptible VM. The VM table, the VM -> chunks index and the victim order
// are built once per call; only the free-core plan is reset per victim.
func (h *Heuristic) consolidate(v *sim.View, act sim.Control) error {
	s := &h.cons
	h.vmBuf = v.ActiveVMsInto(h.vmBuf[:0])
	vms := h.vmBuf
	if len(vms) == 0 {
		return nil
	}
	s.pos = resize(s.pos, vms[len(vms)-1].ID+1)
	for i, vm := range vms {
		s.pos[vm.ID] = i
	}
	s.chunks = resize(s.chunks, len(vms))
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	for pe := 0; pe < v.Graph().N(); pe++ {
		h.asgBuf = v.AssignmentsInto(pe, h.asgBuf[:0])
		for _, a := range h.asgBuf {
			i := s.pos[a.VMID]
			s.chunks[i] = append(s.chunks[i], chunk{pe: pe, cores: a.Cores})
		}
	}
	s.order = resize(s.order, len(vms))
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(i, j int) int {
		ui := float64(vms[i].UsedCores) / float64(vms[i].Class.Cores)
		uj := float64(vms[j].UsedCores) / float64(vms[j].Class.Cores)
		return cmp.Compare(ui, uj)
	})
	s.free = resize(s.free, len(vms))
	for _, vi := range s.order {
		victim := &vms[vi]
		if victim.UsedCores == 0 {
			continue
		}
		for i := range vms {
			s.free[i] = vms[i].FreeCores
		}
		s.moves = s.moves[:0]
		ok := true
		for _, c := range s.chunks[vi] {
			ecu := float64(c.cores) * victim.Class.CoreSpeed
			best, bestNeed := -1, 0
			for d := range vms {
				dst := vms[d].Class
				// Never consolidate on-demand capacity onto spot VMs: the
				// constraint-critical base must survive reclamations.
				if d == vi || dst.Preemptible && !victim.Class.Preemptible {
					continue
				}
				f := s.free[d]
				need := coresNeeded(ecu, dst)
				if need == 0 {
					need = 1
				}
				if need <= f && (best < 0 || f-need < s.free[best]-bestNeed) {
					best, bestNeed = d, need
				}
			}
			if best < 0 {
				ok = false
				break
			}
			s.free[best] -= bestNeed
			s.moves = append(s.moves, move{pe: c.pe, dst: vms[best].ID, cores: bestNeed})
		}
		if !ok {
			continue
		}
		for i, m := range s.moves {
			if err := act.AssignCores(m.pe, m.dst, m.cores); err != nil {
				return err
			}
			c := s.chunks[vi][i]
			if err := act.UnassignCores(c.pe, victim.ID, c.cores); err != nil {
				return err
			}
		}
		return nil // one consolidation per stage damps churn
	}
	return nil
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. Elements beyond the old length are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// releaseIdle releases empty VMs approaching their paid hour boundary; an
// empty VM far from the boundary is kept as already-paid spare capacity.
func (h *Heuristic) releaseIdle(v *sim.View, act sim.Control) error {
	sink := decisionSink(act)
	window := h.opts.ReleaseWindowSec
	if window == 0 {
		window = 2 * v.IntervalSec()
	}
	h.vmBuf = v.ActiveVMsInto(h.vmBuf[:0])
	for _, vm := range h.vmBuf {
		if vm.UsedCores != 0 {
			continue
		}
		if vm.SecsToHourBoundary <= window {
			if err := act.ReleaseVM(vm.ID); err != nil {
				return err
			}
			if sink != nil {
				sink.Decide(obs.Decision{
					Kind:   "release",
					Chosen: fmt.Sprintf("release-vm vm-%d (%s)", vm.ID, vm.Class.Name),
					Reason: "idle and approaching its paid hour boundary",
					Inputs: map[string]float64{
						"secsToHourBoundary": float64(vm.SecsToHourBoundary),
						"windowSec":          float64(window),
					},
				})
			}
		}
	}
	return nil
}

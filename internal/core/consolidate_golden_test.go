package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// consolidatingRun runs a global adaptive heuristic on a 3x3 layered DAG
// whose input rate swings between 1 and 7 msg/s, so the fleet repeatedly
// grows to tens of VMs and drains again — the regime where the resource
// stage consolidates. It returns the audit log and the metrics CSV.
func consolidatingRun(t *testing.T, noConsolidate bool) (audit, csv []byte) {
	t.Helper()
	g := dataflow.LayeredGraph(3, 3, 4)
	obj, err := PaperSigma(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true,
		Objective: obj, NoConsolidate: noConsolidate})
	wave, err := rates.NewWave(4, 3, 3600)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       trace.MustReplayed(trace.ReplayedConfig{Seed: 3, CPUTraces: 4, NetTraces: 4, Samples: 20000}),
		Inputs:     map[int]rates.Profile{0: wave},
		HorizonSec: 3 * 3600,
		Seed:       5,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(h); err != nil {
		t.Fatal(err)
	}
	var a, c bytes.Buffer
	if err := e.WriteAuditJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Collector().WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), c.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestConsolidatingRunGoldenDigests pins the audit log and metrics CSV of a
// run in which consolidation moves cores, so any change to the resource
// stage's decisions or their order shows up as a digest mismatch. The same
// run without consolidation must audit differently, which proves the
// scenario exercises it.
func TestConsolidatingRunGoldenDigests(t *testing.T) {
	const (
		wantAudit = "5979019f7bd86d925db4b9c07490c01fecb4a6df64bcd91f5b29b13cdfc96416"
		wantCSV   = "46256c12163517494e956488514f80c4fc8a064c79e1a79a9c357acfce65e441"
	)
	audit, csv := consolidatingRun(t, false)
	if got := sha256Hex(audit); got != wantAudit {
		t.Errorf("audit sha256 = %s, want %s (%d bytes)", got, wantAudit, len(audit))
	}
	if got := sha256Hex(csv); got != wantCSV {
		t.Errorf("csv sha256 = %s, want %s (%d bytes)", got, wantCSV, len(csv))
	}
	plain, _ := consolidatingRun(t, true)
	if bytes.Equal(plain, audit) {
		t.Fatal("the run audits identically without consolidation; the golden does not exercise consolidate")
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"dynamicdf/internal/sim"
)

// shortened returns a workload with shorter horizons (and, for the
// campaign, fewer replica seeds), so the test exercises every code path of
// the benchmark in seconds.
func shortened(t *testing.T, name string) bench {
	t.Helper()
	patch := func(doc []byte, edit func(map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(doc, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		return mustJSON(m)
	}
	switch w := workloads[name](defaultSeed).(type) {
	case campaign:
		return campaign{doc: patch(w.doc, func(m map[string]any) {
			m["base"].(map[string]any)["horizonHours"] = 0.25
			m["seeds"] = m["seeds"].([]any)[:2]
		})}
	case scenarios:
		for i := range w {
			w[i].doc = patch(w[i].doc, func(m map[string]any) { m["horizonHours"] = 0.5 })
		}
		return w
	}
	t.Fatalf("unknown workload type for %s", name)
	return nil
}

// declared reads the metric names BENCHMARK.json declares in section key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(b *book) []string {
	var names []string
	for n, m := range b.metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func equalLists(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloads runs both passes of every workload. The traced pass fails
// its book unless the wrapped run's summary, CSV, audit log (and trace)
// digests equal the plain run's, so a wrapper that drops a forwarded
// interface fails here. Both passes must report exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t, "end_to_end"), declared(t, "per_layer")
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			w := shortened(t, name)
			b := &book{metrics: map[string]metric{}}
			w.endToEnd(b, 1)
			if b.failed != 0 || !equalLists(reported(b), endToEnd) {
				t.Errorf("end-to-end pass: %d of %d failed; metrics %v, want %v", b.failed, b.attempted, reported(b), endToEnd)
			}
			b = &book{metrics: map[string]metric{}}
			w.perLayer(b)
			if b.failed != 0 || !equalLists(reported(b), perLayer) {
				t.Errorf("traced pass: %d of %d failed; metrics %v, want %v", b.failed, b.attempted, reported(b), perLayer)
			}
		})
	}
}

// statefulScheduler is a scheduler with checkpointable state.
type statefulScheduler struct{ sim.Scheduler }

func (statefulScheduler) CheckpointState() ([]byte, error) { return []byte("state"), nil }
func (statefulScheduler) RestoreState([]byte) error        { return nil }

func isStateful(s sim.Scheduler) bool {
	_, ok := s.(sim.StatefulScheduler)
	return ok
}

// TestWrappersForwardOptionalInterfaces checks that wrapping keeps exactly
// the optional interfaces the program type-asserts.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	var clk clock
	var plain sim.Scheduler = &schedWrap{}
	if s, _ := wrapScheduler(plain, &clk, nil); isStateful(s) {
		t.Error("wrapped stateless scheduler claims to be stateful")
	}
	s, _ := wrapScheduler(statefulScheduler{plain}, &clk, nil)
	ss, ok := s.(sim.StatefulScheduler)
	if !ok {
		t.Fatal("wrapped stateful scheduler lost sim.StatefulScheduler")
	}
	if b, err := ss.CheckpointState(); err != nil || string(b) != "state" {
		t.Errorf("CheckpointState = %q, %v", b, err)
	}

	var n controlCounts
	actions := sim.NewActions(nil)
	if _, ok := wrapControl(actions, &n).(sim.DecisionSink); !ok {
		t.Error("wrapped engine control surface lost sim.DecisionSink")
	}
	if _, ok := wrapControl(controlWrap{inner: actions, n: &n}, &n).(sim.DecisionSink); ok {
		t.Error("wrapped control surface without decisions claims sim.DecisionSink")
	}
}

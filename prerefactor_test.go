package dynamicdf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

// TestPrerefactorGoldenRestore resumes the committed testdata/prerefactor
// state/v1 snapshot under its scenario, the way `dfsim -restore -csv -audit
// -trace` does, and requires the metrics CSV, audit log and event trace to
// match the committed warm.* files byte for byte. The fixture predates the
// multi-tenant engine and the flow-stage arenas, so it pins that neither is
// visible to single-tenant runs.
func TestPrerefactorGoldenRestore(t *testing.T) {
	dir := filepath.Join("testdata", "prerefactor")
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sc, err := scenario.ParseBytes(read("scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Audit = true
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := state.Decode(read("snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.Restore(snap, built.Config)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	eng.SetTracer(tracer)
	if _, err := eng.Run(built.Scheduler); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	var csvBuf, auditBuf bytes.Buffer
	if err := eng.Collector().WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := eng.WriteAuditJSONL(&auditBuf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"warm.csv", csvBuf.Bytes()},
		{"warm.jsonl", auditBuf.Bytes()},
		{"warm.ndjson", traceBuf.Bytes()},
	} {
		if want := read(f.name); !bytes.Equal(f.got, want) {
			t.Errorf("%s diverged from the pre-refactor golden (%d bytes, want %d)", f.name, len(f.got), len(want))
		}
	}
}

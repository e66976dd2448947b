package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/state"
)

// flowRunOutputs is every consumer-visible byte surface of one finished run:
// the event trace, the audit log, the per-interval metrics, and the encoded
// checkpoint. The golden digests cover all four, not a summary.
type flowRunOutputs struct {
	trace []byte
	audit []byte
	csv   []byte
	snap  []byte
}

// runFlowScenario executes the property-test scenario for one seed and
// captures every output surface. Odd seeds crash VMs mid-run; all seeds
// deploy scarce (queues build) and scale up halfway (queues drain), so the
// run crosses rehome, migration, and multi-VM delivery — every flow path.
func runFlowScenario(t *testing.T, seed int64) flowRunOutputs {
	t.Helper()
	rng := rand.New(rand.NewSource(1000 + seed))
	g := randomPipelineDAG(rng)
	rate := 1 + rng.Float64()*8
	profiles := map[int]rates.Profile{}
	for _, pe := range g.Inputs() {
		c, err := rates.NewConstant(rate)
		if err != nil {
			t.Fatal(err)
		}
		profiles[pe] = c
	}
	var traceBuf bytes.Buffer
	cfg := Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     profiles,
		HorizonSec: 3600,
		Seed:       seed,
		MaxVMs:     256,
		Audit:      true,
		Tracer:     obs.NewTracer(&traceBuf),
	}
	if seed%2 == 1 {
		cfg.Failures = ExponentialFailures{MTBFSec: 1200, Seed: seed}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scaledUp := false
	sched := &fixed{
		deploy: func(v *View, act Control) error {
			for pe := 0; pe < g.N(); pe++ {
				id, err := act.AcquireVM("m1.small")
				if err != nil {
					return err
				}
				if err := act.AssignCores(pe, id, 1); err != nil {
					return err
				}
			}
			return nil
		},
		adapt: func(v *View, act Control) error {
			if !scaledUp && v.Now() >= 1800 {
				scaledUp = true
				for pe := 0; pe < g.N(); pe++ {
					id, err := act.AcquireVM("m1.xlarge")
					if err != nil {
						return err
					}
					if err := act.AssignCores(pe, id, 4); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
	if _, err := e.Run(sched); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	var out flowRunOutputs
	out.trace = traceBuf.Bytes()
	var auditBuf bytes.Buffer
	if err := e.WriteAuditJSONL(&auditBuf); err != nil {
		t.Fatal(err)
	}
	out.audit = auditBuf.Bytes()
	var csvBuf bytes.Buffer
	if err := e.Collector().WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	out.csv = csvBuf.Bytes()
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	out.snap, err = state.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// flowGoldenDigests pins the sha256 of every output surface of the
// flow scenario for seeds 0-7 (trace, audit log, metrics CSV,
// encoded state/v1 checkpoint). The serial flow stage is the contract: any
// change to the flow arithmetic, its fold order, or the delivery path shows
// up here as a digest mismatch.
var flowGoldenDigests = [8]struct{ trace, audit, csv, snap string }{
	{
		trace: "e39281f6f2e8919147438bdbfd74c3928a72ec98c549ba742f26af15546a4523",
		audit: "48c7bb47d4fca4d15cff652dcf17a5cce766f35fe3a4676e46c3ce752843c0a9",
		csv:   "1046bde48f9370c7bbf162a9d6302ee75faec77fd57771f25475475c754f5494",
		snap:  "a7116971e8cbf9b0173ce7f9f9cbe03fa540ac457cf946275853d3a69a8be213",
	},
	{
		trace: "b6990ab0f794e735cc7bb6521f89a822d0c5c22e5610764b3fef444f1ca31fd1",
		audit: "2afa4527901421e2ab0f91817366ddcb32968caa79d2f3ab330187104a3f3cb3",
		csv:   "cd1de6e138f2e87445e25e578d474cb0bf1eec23548fa729ad99874e04206c9b",
		snap:  "86d29071e675f9fa7343aab414050832f5c7ca15edc9bd133acf8b00e36869ca",
	},
	{
		trace: "6806232dae0f8bcc5bffde7c9c57ad55859771e9f9f7f1aee4e113dd55dea28d",
		audit: "ba8d63acd45b1e09038dfdcf4637d265dfcff0bee3edd4a5a042303714ee81e1",
		csv:   "9a50986c1350558ce3adad16ba564184069eb7b74d4cf524709c1797e34abd96",
		snap:  "d153b4fc1558984bb480b80456dd33fc30dfb3f5fc7a0ede862056b75b4d353e",
	},
	{
		trace: "6714ad1f659943ea71ef38522c9449f74e013604d4d921c292e65948104bf3ee",
		audit: "cecd11dc7a6186aeb58d10f11b37bf7d5493dd65c19f02dfd15727b70606a92a",
		csv:   "20b4da1f78742f94854f577be28ea50cb55594427abddb2f3bb48a1e8d7700b7",
		snap:  "4609078a4876b5c49652996b0bebf00c29fe0f6d79147771948eaa262faaaeb6",
	},
	{
		trace: "822f45dcce2dca850809e6d9b59e0280069ed00b65b5d011cf123f5345d28683",
		audit: "17916aa54cd362033bc86b414b568dd3c45541552466142129e2458baa52ed5f",
		csv:   "51977d1dcdd6bf97139b377b8b6823ce2004ad85823a6eb1d0f86402bbf35155",
		snap:  "914936113494323fbae70ed91e5d6e5f9f5b651acda64e1ee8ac28b1faf3b7df",
	},
	{
		trace: "186c386a7e4404ca34d5eb197914517eebab54243dacc8135f4591c96b1ae8e1",
		audit: "d0df118b52d18f142205655bda1f56025453535929192714f582c6a9c9690bf3",
		csv:   "5d0f02ccf1e15d5c5e1b379808efd73d9bce5a00ff552937fe7b7d4f9e2477ab",
		snap:  "12bdb0a3c057f20ea74fbf38488fe299a46e1f92514a570005acb4410646b453",
	},
	{
		trace: "b774b2d8cb995db373923639653c139ddb4a20d81b2ed861d5663094d1a89cb3",
		audit: "17916aa54cd362033bc86b414b568dd3c45541552466142129e2458baa52ed5f",
		csv:   "0cfc2836190655b6564c60982d576ecaa739059ffdc14019cba63e00561b1bdc",
		snap:  "c53fa9556c8ea41e743ec70dfedaea045ecbe1737cd64c413a370ebc235eef55",
	},
	{
		trace: "8f8fb6568f6c4852d0e896a0549e0c4375f5174ff7f6597801cec4d0bca0ea27",
		audit: "89672924fd3b3b7a8b011f9c6a2aa778acb026dba5f3b859cd57557b32e2e918",
		csv:   "e3075aa74ac5c3bbe37f7f41ee7e724db4542803a6f683bfeeccfe7efe336b73",
		snap:  "43f7b2b3c983bf4631e4d4420aec9f22f85b267c7705ea5be10dab1e4dd85386",
	},
}

// TestFlowGoldenDigests re-runs the flow scenario for each pinned
// seed and compares all four output surfaces against flowGoldenDigests.
func TestFlowGoldenDigests(t *testing.T) {
	for seed := range flowGoldenDigests {
		want := flowGoldenDigests[seed]
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			out := runFlowScenario(t, int64(seed))
			for _, s := range []struct {
				name string
				got  []byte
				want string
			}{
				{"trace", out.trace, want.trace},
				{"audit", out.audit, want.audit},
				{"csv", out.csv, want.csv},
				{"checkpoint", out.snap, want.snap},
			} {
				sum := sha256.Sum256(s.got)
				if got := hex.EncodeToString(sum[:]); got != s.want {
					t.Errorf("%s sha256 = %s, want %s (%d bytes)", s.name, got, s.want, len(s.got))
				}
			}
		})
	}
}

// TestFlowWideDAGObserved steps a wide multi-level DAG with every observer
// attached — strict invariant checker, tracer with stage spans, profiler —
// so the flow stage runs interleaved with all the hook paths that read
// engine state. The run must stay clean and profile every interval.
func TestFlowWideDAGObserved(t *testing.T) {
	cfg := largeDAGConfig(4, 12)
	cfg.HorizonSec = 30 * 60
	cfg.Checker = invariant.NewStrict()
	cfg.StageSpans = true
	var traceBuf bytes.Buffer
	cfg.Tracer = obs.NewTracer(&traceBuf)
	cfg.Profiler = obs.NewStageProfiler(nil)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(&fixed{deploy: deployLargeDAG})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != 30 {
		t.Fatalf("ran %d intervals, want 30", sum.Intervals)
	}
	if n := e.InvariantViolations(); n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if traceBuf.Len() == 0 {
		t.Fatal("tracer captured nothing")
	}
	if stats := cfg.Profiler.Snapshot(); len(stats) == 0 || stats[0].Count != int64(sum.Intervals) {
		t.Fatalf("profiler stats inconsistent: %+v", stats)
	}
}

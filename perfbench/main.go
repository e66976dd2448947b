// Command perfbench is the repository benchmark: it generates a seeded
// workload, runs it through the program's public entry points
// (scenario.Parse and Build, sim.Engine.Run, sweep.ParseSpec and
// sweep.Engine.Run), checks the outputs, and prints one JSON result line.
//
//	go run . -workload scale-adaptive -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// instrumentation beyond one clock read per simulated interval. With
// -trace 1 it reports the per-layer metrics instead, measured by wrapping
// the program's interfaces (sim.Scheduler, sim.Control, trace.Provider)
// from this package and attaching the engine's obs.StageProfiler.
// README.md lists the metrics, the layer each belongs to and the
// end-to-end metric it should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its generator and measuring code.
var workloads = map[string]func(seed int64) bench{
	"scale-adaptive": func(seed int64) bench { return variants(scaleAdaptive, seed, 8, false) },
	"fleet-static":   func(seed int64) bench { return variants(fleetStatic, seed, 3, false) },
	"tenants-traced": func(seed int64) bench { return variants(tenantsTraced, seed, 6, true) },
	"sweep-campaign": func(seed int64) bench { return campaign{doc: mustJSON(sweepCampaign(seed, campaignSeeds))} },
}

// variants generates n scenarios of one shape from a workload seed.
func variants(gen func(*rand.Rand) obj, seed int64, n int, traced bool) scenarios {
	r := rand.New(rand.NewSource(seed))
	v := make(scenarios, n)
	for i := range v {
		v[i] = singleRun{name: fmt.Sprintf("v%d.", i), doc: mustJSON(gen(r)), traced: traced}
	}
	return v
}

// bench measures one generated workload.
type bench interface {
	endToEnd(b *book, d time.Duration)
	perLayer(b *book)
}

// defaultSeed is the default workload seed.
const defaultSeed = 1

// digestsJSON records, per workload and seed, the digest of every output a
// run of that seed produces (see book.outputs). Floating-point contraction
// differs between architectures, so the digests are checked on amd64 only;
// on other seeds and architectures a run is checked for run-to-run
// determinism alone.
//
//go:embed digests.json
var digestsJSON []byte

// setupReps is how many times a run sets its workload up to report the
// median set-up time, after one untimed warm-up.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload to run: scale-adaptive, fleet-static, tenants-traced or sweep-campaign")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	secs := flag.Int("seconds", 20, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	gen, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *traced)
		os.Exit(2)
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &refs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json: %v\n", err)
		os.Exit(1)
	}
	b := &book{metrics: map[string]metric{}}
	w := gen(*seed)
	if *traced == 1 {
		w.perLayer(b)
	} else {
		w.endToEnd(b, time.Duration(*secs)*time.Second)
	}
	want, recorded := refs[*name][fmt.Sprint(*seed)]
	if got := b.outputs(); recorded && runtime.GOARCH == "amd64" && b.failed == 0 && got != want {
		b.fail("outputs digest %s, want %s as recorded in digests.json", got, want)
	}
	if b.attempted == 0 || b.attempted == b.failed {
		fmt.Fprintf(os.Stderr, "perfbench: %s: every run failed\n", *name)
		os.Exit(1)
	}
	b.print(*name, *seed)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// book collects one invocation's metrics and its correctness tally.
type book struct {
	metrics           map[string]metric
	attempted, failed int
	// digests are the first output digest seen under each name; later
	// runs must match them.
	digests map[string]string
	notes   []string
}

func (b *book) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed run or check.
func (b *book) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// check compares one run's output digests with the first digests seen
// under the same names, and reports whether they all matched.
func (b *book) check(d map[string]string) bool {
	if b.digests == nil {
		b.digests = map[string]string{}
	}
	for k, got := range d {
		want, seen := b.digests[k]
		if !seen {
			b.digests[k] = got
		} else if got != want {
			b.fail("%s digest %s, want %s", k, got, want)
			return false
		}
	}
	return true
}

// outputs is one digest over every output digest the runs produced, named
// and in name order: what digests.json records per workload and seed.
func (b *book) outputs() string {
	h := newDigestWriter()
	for _, k := range sortedKeys(b.digests) {
		fmt.Fprintf(h, "%s %s\n", k, b.digests[k])
	}
	return h.digest()
}

func (b *book) print(name string, seed int64) {
	fmt.Printf("workload %s seed %d: %s %s/%s, nproc %d, GOMAXPROCS %d\n",
		name, seed, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("failed_frac %.4f (%d of %d runs or checks failed)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, k := range sortedKeys(b.digests) {
		fmt.Printf("digest %s %s\n", k, b.digests[k])
	}
	fmt.Printf("outputs %s\n", b.outputs())
	for _, n := range sortedKeys(b.metrics) {
		fmt.Printf("%-34s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
)

// runTraceGoldenPath holds the committed RunTrace digests: one SHA-256
// per bug, plan feature set and fault mode over the canonical encodings
// of the sampled runs.
const runTraceGoldenPath = "testdata/runtrace_golden.json"

// goldenSampleSpecs is how many specs of a bug's last AsT batch the
// golden gate replays.
const goldenSampleSpecs = 16

// goldenPlans are the feature sets each sampled spec is replayed under.
var goldenPlans = []struct {
	name  string
	feats core.Features
}{
	{"static", core.Features{Static: true}},
	{"cf", core.Features{ControlFlow: true}},
	{"df", core.Features{DataFlow: true}},
	{"all", core.AllFeatures()},
	{"all+extpt", core.Features{Static: true, ControlFlow: true, DataFlow: true, ExtendedPT: true}},
}

// TestRunTraceGolden pins what an endpoint ships for one run: every
// RunTrace field the server consumes, for the last AsT batch of every
// bug, under five plan feature sets, on a reliable endpoint and under a
// 10% composite fault decision. Any change to the client runtime, the
// PT encoder/decoder or the watchpoint unit that alters a single trace
// byte shows up here, not only when it flips a sketch.
func TestRunTraceGolden(t *testing.T) {
	raw, err := os.ReadFile(runTraceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", runTraceGoldenPath, err)
	}
	seen := 0
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for k, got := range runTraceDigests(t, b, core.EngineBytecode) {
				if want[k] != got {
					t.Errorf("%s: RunTrace digest %s, committed %s", k, got, want[k])
				}
			}
		})
		seen += len(goldenPlans) * 2
	}
	if seen != len(want) {
		t.Errorf("%d digests checked, %d committed", seen, len(want))
	}
}

// goldenSample is a bug's last AsT batch: the window it was planned
// under and its first goldenSampleSpecs specs.
type goldenSample struct {
	window []int
	specs  []core.RunSpec
}

var (
	goldenSamples sync.Map // bug name -> *goldenSample
	goldenDigests sync.Map // bug name + engine -> map[string]string
)

// lastBatchRunner executes a campaign's batches serially and keeps the
// most recent one.
type lastBatchRunner struct{ last *goldenSample }

func (r *lastBatchRunner) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	s := &goldenSample{window: append([]int(nil), plan.Tracked...)}
	for _, j := range jobs[:min(len(jobs), goldenSampleSpecs)] {
		s.specs = append(s.specs, j.Spec)
	}
	r.last = s
	out := make([]*core.RunTrace, len(jobs))
	for i, j := range jobs {
		out[i] = core.RunInstrumentedFaults(plan, j.Spec, j.Dec)
	}
	return out
}

// sampleLastBatch diagnoses b on a reliable fleet of fixed width (the
// chunk size, and so the batch boundaries, follow the width) and
// returns its last batch. Memoized per bug: the sample is engine-free
// input to every digest of the bug.
func sampleLastBatch(t *testing.T, b *bugs.Bug) *goldenSample {
	t.Helper()
	if s, ok := goldenSamples.Load(b.Name); ok {
		return s.(*goldenSample)
	}
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.Workers = 4
	cfg.StopWhen = DeveloperOracle(b)
	report, disc, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("%s: discovery: %v", b.Name, err)
	}
	camp, err := core.NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	r := &lastBatchRunner{}
	camp.UseRunner(r)
	if _, err := camp.Run(); err != nil {
		t.Fatalf("%s: diagnosis: %v", b.Name, err)
	}
	if r.last == nil || len(r.last.specs) == 0 {
		t.Fatalf("%s: campaign dispatched no batch", b.Name)
	}
	s, _ := goldenSamples.LoadOrStore(b.Name, r.last)
	return s.(*goldenSample)
}

// runTraceDigests replays b's golden sample on eng under every golden
// plan, clean and under a 10% composite fault decision, and digests the
// canonical RunTrace encodings per (bug, plan, fault mode). Memoized per
// bug and engine, so the golden gate and the engine differential share
// one replay when they run in the same process.
func runTraceDigests(t *testing.T, b *bugs.Bug, eng core.Engine) map[string]string {
	t.Helper()
	memo := b.Name + "@" + eng.String()
	if d, ok := goldenDigests.Load(memo); ok {
		return d.(map[string]string)
	}
	s := sampleLastBatch(t, b)
	g := analysis.Graph(b.Program())
	inj := faults.NewInjector(faults.Composite(ChaosSeed, 0.10))
	modes := []string{"clean", "fault10"}
	// Runs are independent, so they replay on a small worker pool; the
	// encodings are hashed in (plan, mode, spec) order afterwards.
	type job struct {
		plan *core.Plan
		spec core.RunSpec
		dec  faults.Decision
	}
	var jobs []job
	for _, gp := range goldenPlans {
		plan := core.BuildPlan(g, s.window, gp.feats)
		plan.Engine = eng
		for _, mode := range modes {
			for _, spec := range s.specs {
				dec := faults.Decision{}
				if mode == "fault10" {
					dec = inj.ForRun(spec.EndpointID, spec.Seed)
				}
				jobs = append(jobs, job{plan, spec, dec})
			}
		}
	}
	enc := make([][]byte, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				j := jobs[i]
				enc[i] = encodeRunTrace(core.RunInstrumentedFaults(j.plan, j.spec, j.dec))
			}
		}()
	}
	wg.Wait()
	out := make(map[string]string)
	for _, gp := range goldenPlans {
		for _, mode := range modes {
			h := sha256.New()
			for i := range s.specs {
				fmt.Fprintf(h, "run %d\n", i)
				h.Write(enc[0])
				enc = enc[1:]
			}
			out[b.Name+"/"+gp.name+"/"+mode] = hex.EncodeToString(h.Sum(nil))
		}
	}
	goldenDigests.Store(memo, out)
	return out
}

// encodeRunTrace is the canonical byte encoding of everything a RunTrace
// carries to the server. Maps are written in key order; a per-core
// branch key with no observations is written (the truncation fault picks
// among those keys), and so is the meter in raw millicycles.
func encodeRunTrace(rt *core.RunTrace) []byte {
	if rt == nil {
		return []byte("crashed\n")
	}
	var b strings.Builder
	if o := rt.Outcome; o == nil {
		b.WriteString("outcome nil\n")
	} else {
		fmt.Fprintf(&b, "outcome failed=%v exit=%d steps=%d prints=%q", o.Failed, o.Exit, o.Steps, o.Prints)
		if o.Report != nil {
			fmt.Fprintf(&b, " report=%s", o.Report.ID())
		}
		b.WriteString("\n")
	}
	for _, c := range sortedKeys(rt.Flow) {
		fmt.Fprintf(&b, "flow %d %v\n", c, rt.Flow[c])
	}
	for _, c := range sortedKeys(rt.Branches) {
		fmt.Fprintf(&b, "branches %d %v\n", c, rt.Branches[c])
	}
	fmt.Fprintf(&b, "executed %v\n", sortedKeys(rt.Executed))
	for _, tr := range rt.Traps {
		fmt.Fprintf(&b, "trap %+v\n", tr)
	}
	base, extra := rt.Meter.MC()
	fmt.Fprintf(&b, "misses=%d meter=%d/%d salvaged=%d decodeErr=%v late=%v dropped=%d reordered=%d truncated=%v\n",
		rt.WatchMisses, base, extra, rt.SalvagedCores, rt.DecodeErr != nil, rt.Late,
		rt.DroppedTraps, rt.ReorderedTraps, rt.Truncated)
	return []byte(b.String())
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

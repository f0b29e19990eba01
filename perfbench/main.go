// Command perfbench is the repository's benchmark: it drives Gist's local
// diagnosis, its diagnosis service and the service's recurrence traffic in
// one process, checks every sketch it receives against committed digests
// and local reference diagnoses, and prints end-to-end metrics (untraced)
// or per-layer metrics (traced) as one JSON line. It runs on Linux, whose
// /proc/stat and per-thread CPU clocks it reads to keep hypervisor steal
// out of its figures.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload local-suite --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
)

// Fixed loads. They stay the same across commits so that a change shows
// as latency, not as a different offered load.
const (
	// novelRate is about 40% of the service's diagnosis capacity on the
	// 2-core machine the benchmark was defined on.
	novelRate = 2.5 // reports per second
	// recurringRate is the recurrence-traffic request rate.
	recurringRate = 2000 // requests per second
	// recurringTenants × the 12 bugs is the campaign population the
	// recurring load addresses.
	recurringTenants = 2
	// setups is how many times set-up runs; setup_s is their median.
	setups = 3
)

var workloads = []string{"local-suite", "service-novel", "service-recurring"}

// options is one benchmark invocation.
type options struct {
	workload         string
	seed             int64
	length           time.Duration
	trace            bool
	bugs             []*bugs.Bug
	setups           int
	digests          map[string]string
	novelRate        float64
	recurringRate    float64
	recurringTenants int
}

// outcome is what one invocation measured.
type outcome struct {
	attempted, failed int
	wrong             int
	metrics           map[string]float64
	tracer            *tracer
}

// envRecord identifies the machine and code a result came from.
type envRecord struct {
	NCPU       int    `json:"ncpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw one; SourceSHA256 identifies the source tree either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// StealFrac is the share of CPU time the hypervisor gave to other
	// guests while this run was measuring (-1 where /proc/stat is not
	// available). Every wall-clock figure inflates with it.
	StealFrac float64 `json:"steal_frac"`
}

func environment() envRecord {
	env := envRecord{
		NCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	env.SourceSHA256 = sourceDigest()
	return env
}

// cpuTimes reads the machine-wide busy+idle and steal ticks from
// /proc/stat.
func cpuTimes() (total, steal float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// sourceDigest hashes the program's Go sources and module file under the
// working directory (the repository root).
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				paths = append(paths, path)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run sets the workload up opts.setups times, then measures it untraced
// and, with opts.trace, once more traced.
func run(o options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var setupTimes, compile, graph, slice, discovery []float64
	var s *suite
	var r *rig
	var refs []campaignRef
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		setupStolen := stolen()
		t0 := time.Now()
		var err error
		if s, err = setupSuite(o.bugs, o.digests); err != nil {
			return nil, err
		}
		switch o.workload {
		case "service-novel":
			r = newRig(s, 0)
		case "service-recurring":
			if r, refs, err = recurringRig(s, o.recurringTenants); err != nil {
				return nil, err
			}
		}
		setupTimes = append(setupTimes, (time.Since(t0) - (stolen() - setupStolen)).Seconds())
		compile = append(compile, ms(s.compile))
		graph = append(graph, ms(s.graph))
		slice = append(slice, ms(s.slice))
		discovery = append(discovery, ms(s.discovery))
	}
	if r != nil {
		defer r.close()
	}

	measure := func(tr *tracer, lt *localLayers) (*phase, []*agentStats, error) {
		runtime.GC()
		switch o.workload {
		case "local-suite":
			return localPhase(s, rng, o.length, tr, lt), nil, nil
		case "service-novel":
			tag := "u"
			if tr != nil {
				tag = "t"
			}
			return novelPhase(r, s, rng, o.length, o.novelRate, tag, tr)
		default:
			return recurringPhase(r, refs, rng, o.length, o.recurringRate, tr), nil, nil
		}
	}
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	untraced, _, err := measure(nil, nil)
	if err != nil {
		return nil, err
	}
	out.add(untraced)
	if !o.trace {
		untraced.metrics(m)
		m["setup_s"] = quantile(setupTimes, 0.50)
		return out, nil
	}

	tr := newTracer()
	lt := &localLayers{samples: map[string]*runSample{}}
	var before serverCounters
	if r != nil {
		before = r.counters()
		r.pr.tr.Store(tr)
	}
	ptBefore, watchBefore, anBefore := pt.Snapshot(), watch.Snapshot(), analysis.Snapshot()
	traced, agents, err := measure(tr, lt)
	if err != nil {
		return nil, err
	}
	ptAfter, watchAfter, anAfter := pt.Snapshot(), watch.Snapshot(), analysis.Snapshot()
	if r != nil {
		r.pr.tr.Store(nil)
	}
	out.add(traced)
	out.tracer = tr

	m["lang.compile_ms"] = quantile(compile, 0.50)
	m["analysis.graph_ms"] = quantile(graph, 0.50)
	m["analysis.slice_ms"] = quantile(slice, 0.50)
	m["vm.discovery_ms"] = quantile(discovery, 0.50)
	m["vm.discovery_runs"] = float64(s.discoveryRuns)
	hits := anAfter.GraphHits + anAfter.SliceHits + anAfter.BytecodeHits -
		anBefore.GraphHits - anBefore.SliceHits - anBefore.BytecodeHits
	builds := anAfter.GraphBuilds + anAfter.SliceBuilds + anAfter.BytecodeBuilds -
		anBefore.GraphBuilds - anBefore.SliceBuilds - anBefore.BytecodeBuilds
	m["analysis.cache_hit_frac"] = frac(float64(hits), float64(hits+builds))
	m["pt.decode_calls"] = float64(ptAfter.DecodeCalls - ptBefore.DecodeCalls)
	m["pt.decoded_bytes"] = float64(ptAfter.DecodedBytes - ptBefore.DecodedBytes)
	m["watch.arms"] = float64(watchAfter.Arms - watchBefore.Arms)
	m["watch.traps"] = float64(watchAfter.Traps - watchBefore.Traps)
	m["trace.overhead_frac"] = frac(quantile(traced.lat, 0.50), quantile(untraced.lat, 0.50)) - 1

	sum := tr.summarize()
	switch o.workload {
	case "local-suite":
		localLayerMetrics(m, sum, lt, replay(s, lt.samples))
		for name, lat := range untraced.byKind {
			m["bug."+name+".local_ms_p50"] = quantile(lat, 0.50)
		}
	case "service-novel":
		serviceLayerMetrics(m, r, traced, sum, agents, before, traced.attempted)
		for name, lat := range untraced.byKind {
			m["bug."+name+".e2e_ms_p50"] = quantile(lat, 0.50)
		}
	default:
		serviceLayerMetrics(m, r, traced, sum, nil, before, 0)
		m["fold_ms_p50"] = quantile(untraced.byKind["fold"], 0.50)
		m["fold_ms_p99"] = quantile(untraced.byKind["fold"], 0.99)
		m["fetch_ms_p50"] = quantile(untraced.byKind["fetch"], 0.50)
		m["fetch_ms_p99"] = quantile(untraced.byKind["fetch"], 0.99)
	}
	return out, nil
}

// add counts a phase's operations into the outcome.
func (out *outcome) add(ph *phase) {
	out.attempted += ph.attempted
	out.failed += ph.failed
	out.wrong += ph.wrong
}

func mainErr(workload string, seed int64, seconds float64, trace int, printDigests bool) error {
	if printDigests {
		s, err := setupSuite(bugs.All(), nil)
		if err != nil {
			return err
		}
		d := map[string]string{}
		for _, p := range s.bugs {
			d[p.bug.Name] = sketchDigest(p.refJSON)
		}
		data, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %v)", workload, workloads)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	env := environment()
	if env.GOMAXPROCS < env.NCPU {
		return fmt.Errorf("GOMAXPROCS=%d is below the %d CPUs of this machine; a result from fewer cores cannot back a scaling claim", env.GOMAXPROCS, env.NCPU)
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	total0, steal0, ok0 := cpuTimes()
	out, err := run(options{
		workload: workload, seed: seed, length: time.Duration(seconds * float64(time.Second)),
		trace: trace == 1, bugs: bugs.All(), setups: setups, digests: digests,
		novelRate: novelRate, recurringRate: recurringRate, recurringTenants: recurringTenants,
	})
	if err != nil {
		return err
	}
	env.StealFrac = -1
	if total1, steal1, ok1 := cpuTimes(); ok0 && ok1 && total1 > total0 {
		env.StealFrac = (steal1 - steal0) / (total1 - total0)
	}
	envLine, err := json.Marshal(map[string]envRecord{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	if out.tracer != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
		if err := out.tracer.write(path, env); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer()
	}
	line, err := out.result(specs)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		workload     = flag.String("workload", "", "workload: local-suite, service-novel or service-recurring")
		seed         = flag.Int64("seed", 1, "workload seed: bug order, arrival times and request draws")
		seconds      = flag.Float64("seconds", 20, "length of the timed phase")
		trace        = flag.Int("trace", 0, "1 runs an extra traced phase and prints per-layer metrics instead of end-to-end ones")
		printDigests = flag.Bool("print-digests", false, "print the SHA-256 of every bug's reference sketch as digests.json and exit")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *printDigests); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

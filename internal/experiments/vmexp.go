package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// The vm experiment pins the bytecode engine's single-thread win over
// the tree-walking interpreter: the same bug runs (same seeds, same
// workloads, no hooks) timed on both engines via the testing benchmark
// driver, with allocation counts. This is the per-run cost the fleet
// pays thousands of times per diagnosis, so the speedup here is the
// speedup every layer above — fleet pool, scheduler, service — inherits.
// Each row also splits an instrumented bytecode run into its layers:
// bare, the overhead meter alone, then control-flow tracking (PT) and
// data-flow tracking (watchpoints) added on top, over the bug's slice
// window at σ=4.

// VMRow is one bug's engine comparison.
type VMRow struct {
	Bug string `json:"bug"`
	// NS per run on each engine (testing.Benchmark ns/op).
	InterpNSOp   int64 `json:"interp_ns_op"`
	BytecodeNSOp int64 `json:"bytecode_ns_op"`
	// Heap allocations per run on each engine.
	InterpAllocsOp   int64 `json:"interp_allocs_op"`
	BytecodeAllocsOp int64 `json:"bytecode_allocs_op"`
	// Runs per second on a single thread, the fleet-facing number.
	InterpRunsPerSec   float64 `json:"interp_runs_per_sec"`
	BytecodeRunsPerSec float64 `json:"bytecode_runs_per_sec"`
	// Speedup is InterpNSOp / BytecodeNSOp.
	Speedup float64 `json:"speedup"`
	// Layers is the bytecode run's cost per instrumentation layer.
	Layers *VMLayers `json:"layers"`
}

// VMLayers is one bug's bytecode run cost in ns per run as tracking
// layers are added: bare (no hooks), the client with every tracking
// feature off (the overhead meter only), + control flow, + data flow.
type VMLayers struct {
	BareNSOp  int64 `json:"bare_ns_op"`
	MeterNSOp int64 `json:"meter_ns_op"`
	CFNSOp    int64 `json:"cf_ns_op"`
	DFNSOp    int64 `json:"df_ns_op"`
}

// VMResult is the full vm experiment, serialized to BENCH_vm.json.
type VMResult struct {
	Experiment string `json:"experiment"`
	// GoMaxProcs records the parallelism available at measurement time
	// and NCPU the machine's core count; the measurement itself is
	// single-thread by construction.
	GoMaxProcs int     `json:"gomaxprocs"`
	NCPU       int     `json:"ncpu"`
	Rows       []VMRow `json:"rows"`
}

// VMSuite is the default measurement set: the three printed-sketch bugs.
func VMSuite() []*bugs.Bug { return Suite("pbzip2", "curl", "apache-3") }

// vmRunConfig mirrors the differential suite's per-run configuration so
// the benchmark exercises exactly the runs the determinism tests pin.
func vmRunConfig(b *bugs.Bug, seed int64) vm.Config {
	cfg := vm.Config{Seed: seed, MaxSteps: 200_000, PreemptMean: 3}
	if b.PreemptMean > 0 {
		cfg.PreemptMean = b.PreemptMean
	}
	if len(b.Workloads) > 0 {
		cfg.Workload = b.Workloads[int(seed)%len(b.Workloads)]
	}
	return cfg
}

// VMPerf measures both engines over the suite. Programs are compiled
// outside the timer on both sides (the interpreter walks the IR
// directly; the bytecode program is compiled once), so the numbers
// compare steady-state execution, which is what the fleet amortizes to
// under the process-wide compile cache.
func VMPerf(suite []*bugs.Bug) (*VMResult, error) {
	if len(suite) == 0 {
		suite = VMSuite()
	}
	res := &VMResult{Experiment: "vm", GoMaxProcs: runtime.GOMAXPROCS(0), NCPU: runtime.NumCPU()}
	for _, b := range suite {
		prog := b.Program()
		bp := bytecode.Compile(prog)
		interp := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				vm.Run(prog, vmRunConfig(b, int64(i%8)))
			}
		})
		bc := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				bp.Run(vmRunConfig(b, int64(i%8)))
			}
		})
		if interp.N == 0 || bc.N == 0 {
			return res, fmt.Errorf("vm: %s: benchmark executed no iterations", b.Name)
		}
		row := VMRow{
			Bug:              b.Name,
			InterpNSOp:       interp.NsPerOp(),
			BytecodeNSOp:     bc.NsPerOp(),
			InterpAllocsOp:   interp.AllocsPerOp(),
			BytecodeAllocsOp: bc.AllocsPerOp(),
		}
		if row.InterpNSOp > 0 {
			row.InterpRunsPerSec = 1e9 / float64(row.InterpNSOp)
		}
		if row.BytecodeNSOp > 0 {
			row.BytecodeRunsPerSec = 1e9 / float64(row.BytecodeNSOp)
			row.Speedup = float64(row.InterpNSOp) / float64(row.BytecodeNSOp)
		}
		layers, err := vmLayers(b, row.BytecodeNSOp)
		if err != nil {
			return res, err
		}
		row.Layers = layers
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// vmLayers times the bug's runs through the endpoint client under
// growing feature sets. The window is the bug's slice at σ=4, sliced
// from the failure discovery finds; bare is the bytecode timing above.
func vmLayers(b *bugs.Bug, bareNSOp int64) (*VMLayers, error) {
	gc := b.GistConfig()
	report, _, err := core.FirstFailure(gc)
	if err != nil {
		return nil, fmt.Errorf("vm: %s: %w", b.Name, err)
	}
	window := analysis.Slice(gc.Prog, report.InstrID).Window(4)
	g := analysis.Graph(gc.Prog)
	l := &VMLayers{BareNSOp: bareNSOp}
	for _, layer := range []struct {
		feats core.Features
		into  *int64
	}{
		{core.Features{Static: true}, &l.MeterNSOp},
		{core.Features{Static: true, ControlFlow: true}, &l.CFNSOp},
		{core.AllFeatures(), &l.DFNSOp},
	} {
		plan := core.BuildPlan(g, window, layer.feats)
		r := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				cfg := vmRunConfig(b, int64(i%8))
				core.RunInstrumented(plan, core.RunSpec{
					EndpointID: i % 8, Seed: cfg.Seed, Workload: cfg.Workload,
					PreemptMean: cfg.PreemptMean, MaxSteps: cfg.MaxSteps,
				})
			}
		})
		if r.N == 0 {
			return nil, fmt.Errorf("vm: %s: layer benchmark executed no iterations", b.Name)
		}
		*layer.into = r.NsPerOp()
	}
	return l, nil
}

// WriteJSON serializes the result (indented, trailing newline) to path.
func (r *VMResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateVMJSON checks a BENCH_vm.json artifact: the core count, at
// least one row, live timings on both engines, the bytecode engine
// faster than the interpreter, its hot path allocating less, and a
// layers block with a live timing per layer. The speedup floor here
// is deliberately 1× (is-it-actually-faster), not the target ratio —
// CI smoke runs on noisy shared machines; the committed BENCH_vm.json
// carries the pinned ratios.
func ValidateVMJSON(data []byte) error {
	var r VMResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "vm" {
		return fmt.Errorf("bench json: experiment %q, want vm", r.Experiment)
	}
	if r.GoMaxProcs < 1 {
		return fmt.Errorf("bench json: gomaxprocs %d", r.GoMaxProcs)
	}
	if r.NCPU < 1 {
		return fmt.Errorf("bench json: ncpu %d", r.NCPU)
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("bench json: no vm rows")
	}
	for _, row := range r.Rows {
		if row.Bug == "" {
			return fmt.Errorf("bench json: vm row with no bug name")
		}
		if row.InterpNSOp <= 0 || row.BytecodeNSOp <= 0 {
			return fmt.Errorf("bench json: %s: non-positive ns/op (interp %d, bytecode %d)",
				row.Bug, row.InterpNSOp, row.BytecodeNSOp)
		}
		if row.Speedup <= 1 {
			return fmt.Errorf("bench json: %s: bytecode speedup %.2fx is not a speedup", row.Bug, row.Speedup)
		}
		if row.BytecodeAllocsOp >= row.InterpAllocsOp {
			return fmt.Errorf("bench json: %s: bytecode allocs/op %d not below interpreter's %d",
				row.Bug, row.BytecodeAllocsOp, row.InterpAllocsOp)
		}
		if l := row.Layers; l == nil || l.BareNSOp <= 0 || l.MeterNSOp <= 0 || l.CFNSOp <= 0 || l.DFNSOp <= 0 {
			return fmt.Errorf("bench json: %s: missing or non-positive layers block", row.Bug)
		}
	}
	return nil
}

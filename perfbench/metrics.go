package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/bugs"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units.
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run prints.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"ok_frac", "ratio"},
	{"heap_inuse_mb", "MiB"},
	{"endpoint_overhead_pct", "%"},
	{"recurrences_per_diagnosis", "count"},
	{"accuracy_pct", "%"},
}

// perLayer is what a traced run prints. A layer a workload does not
// exercise reads 0.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"lang.compile_ms", "ms"},
		{"analysis.graph_ms", "ms"},
		{"analysis.slice_ms", "ms"},
		{"analysis.cache_hit_frac", "ratio"},
		{"vm.discovery_ms", "ms"},
		{"vm.discovery_runs", "count"},
		{"vm.bare_run_us_p50", "us"},
		{"vm.bare_run_us_p99", "us"},
		{"hw.runs", "count"},
		{"hw.run_us_p50", "us"},
		{"hw.run_us_p99", "us"},
		{"hw.instr_over_bare", "ratio"},
		{"hw.run_us.static_p50", "us"},
		{"hw.run_us.cf_p50", "us"},
		{"hw.run_us.df_p50", "us"},
		{"pt.decode_calls", "count"},
		{"pt.decoded_bytes", "bytes"},
		{"watch.arms", "count"},
		{"watch.traps", "count"},
		{"core.plan_ms", "ms"},
		{"core.dispatch_ms", "ms"},
		{"core.admit_ms", "ms"},
		{"core.rank_ms", "ms"},
		{"core.decide_ms", "ms"},
		{"core.snapshot_ms", "ms"},
		{"core.iterations", "count"},
		{"core.runs_executed", "count"},
		{"core.runs_admitted", "count"},
		{"core.useful_run_frac", "ratio"},
		{"core.dispatch_wait_frac", "ratio"},
		{"wire.submit_ms_p50", "ms"},
		{"wire.sketch_ms_p50", "ms"},
		{"wire.poll_ms_p50", "ms"},
		{"wire.poll_ms_p99", "ms"},
		{"wire.upload_ms_p50", "ms"},
		{"wire.requests", "count"},
		{"wire.retries", "count"},
		{"wire.polls_per_task", "ratio"},
		{"wire.requests_per_diagnosis", "count"},
		{"wire.bytes_per_diagnosis", "bytes"},
		{"agent.tasks", "count"},
		{"agent.busy_frac", "ratio"},
		{"agent.task_gap_ms_p50", "ms"},
		{"admission.shed", "count"},
		{"admission.max_queued", "count"},
		{"ingest.novel", "count"},
		{"ingest.folded", "count"},
		{"ingest.cache_hit_frac", "ratio"},
		{"ingest.sketch_reloads", "count"},
		{"store.writes", "count"},
		{"store.write_us_p50", "us"},
		{"store.bytes_written", "bytes"},
		{"store.reads", "count"},
		{"store.read_us_p50", "us"},
		{"loadgen.sent", "count"},
		{"loadgen.late_ms_p99", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"fold_ms_p50", "ms"},
		{"fold_ms_p99", "ms"},
		{"fetch_ms_p50", "ms"},
		{"fetch_ms_p99", "ms"},
	}
	for _, name := range bugs.Names() {
		specs = append(specs, metricSpec{"bug." + name + ".local_ms_p50", "ms"})
	}
	for _, name := range bugs.Names() {
		specs = append(specs, metricSpec{"bug." + name + ".e2e_ms_p50", "ms"})
	}
	return specs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the final output line: every spec, with 0 for a layer
// the workload did not exercise. The outcome is correct when no
// operation returned a wrong answer (errors and refusals count as failed,
// not as incorrect).
func (out *outcome) result(specs []metricSpec) ([]byte, error) {
	ms := make(map[string]metricValue, len(specs))
	for _, sp := range specs {
		ms[sp.name] = metricValue{out.metrics[sp.name], sp.unit}
	}
	for name := range out.metrics {
		if _, ok := ms[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed, ms})
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/vm"
)

// defaultMaxIters mirrors core.Config's MaxIters default. The stepped
// campaign below checks the iteration limit before each iteration, as
// Campaign.Step does.
const defaultMaxIters = 12

// localLayers collects what the traced local diagnoses report besides
// their spans.
type localLayers struct {
	diagnoses    int
	runsAdmitted int
	samples      map[string]*runSample // first traced diagnosis of each bug
}

// localPhase is the local-suite load: one caller runs full diagnoses back
// to back, a whole pass over the suite at a time in a seeded order, until
// the phase length has elapsed. Each diagnosis is timed net of steal.
// With a tracer each diagnosis is stepped stage by stage under spans;
// without one it is a plain core.Run.
func localPhase(s *suite, rng *rand.Rand, length time.Duration, tr *tracer, lt *localLayers) *phase {
	ph := newPhase(length)
	heap := startHeapSampler()
	phaseStolen := stolen()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < length; pass++ {
		for _, i := range rng.Perm(len(s.bugs)) {
			p := s.bugs[i]
			opStolen := stolen()
			t0 := time.Now()
			var res *core.Result
			var err error
			if tr == nil {
				res, err = core.Run(p.cfg)
			} else {
				res, err = diagnoseTraced(p, tr, fmt.Sprintf("%s#%d", p.bug.Name, pass), lt)
			}
			d := time.Since(t0) - (stolen() - opStolen)
			v := errored
			if err == nil {
				v = checkResult(p, res)
			}
			ph.record(p.bug.Name, d, v)
			if v == passed {
				ph.addQuality(p.bug, res)
			}
		}
	}
	// A closed loop's throughput is set by its service time, so it is
	// taken net of steal too.
	ph.elapsed = time.Since(start) - (stolen() - phaseStolen)
	ph.heapMean = heap.finish()
	return ph
}

func checkResult(p *prepared, res *core.Result) verdict {
	sketch, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		return errored
	}
	return p.check(sketch)
}

// diagnoseTraced is core.Run taken apart at its public stages: discovery,
// campaign construction, then Plan, Dispatch, Admit, Rank and Decide per
// iteration with the fleet behind a timed Runner, plus the per-iteration
// Snapshot and Encode a checkpointing supervisor performs.
func diagnoseTraced(p *prepared, tr *tracer, key string, lt *localLayers) (*core.Result, error) {
	root := tr.begin("core.diagnosis", key, 0)
	defer root.end()
	sp := tr.begin("vm.discovery", key, root.id())
	report, disc, err := core.FirstFailure(p.cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.prepare", key, root.id())
	camp, err := core.NewCampaign(p.cfg, report, disc)
	sp.end()
	if err != nil {
		return nil, err
	}
	runner := &timedRunner{tr: tr, width: runtime.GOMAXPROCS(0), key: key}
	camp.UseRunner(runner)
	var snapErr error
	stage := func(name string, f func()) {
		sp := tr.begin(name, key, root.id())
		runner.parent = sp.id()
		f()
		sp.end()
	}
	maxIters := p.cfg.MaxIters
	if maxIters == 0 {
		maxIters = defaultMaxIters
	}
	for !camp.Finished() {
		if camp.Iteration() >= maxIters {
			camp.Step() // marks the campaign exhausted
			break
		}
		stage("core.plan", camp.Plan)
		stage("core.dispatch", camp.Dispatch)
		stage("core.admit", camp.Admit)
		stage("core.rank", camp.Rank)
		stage("core.decide", func() { camp.Decide() })
		stage("core.snapshot", func() {
			snap, err := camp.Snapshot()
			if err == nil {
				_, err = snap.Encode()
			}
			if err != nil && snapErr == nil {
				snapErr = fmt.Errorf("snapshot: %w", err)
			}
		})
	}
	res, err := camp.Result()
	if err == nil {
		err = snapErr
	}
	lt.diagnoses++
	if res != nil {
		lt.runsAdmitted += res.TotalRuns
	}
	if lt.samples[p.bug.Name] == nil && runner.sample != nil {
		lt.samples[p.bug.Name] = runner.sample
	}
	return res, err
}

// replayed holds per-run times (µs) of the fixed run sample replayed bare
// and under each feature subset.
type replayed struct {
	bare, all, static, cf, df []float64
}

const replayReps = 3

// replay runs each bug's sampled specs on the bare bytecode machine and
// instrumented under all features, static only, control flow only and
// data flow only, all over the window the specs were planned under.
func replay(s *suite, samples map[string]*runSample) replayed {
	var r replayed
	for _, p := range s.bugs {
		smp := samples[p.bug.Name]
		if smp == nil {
			continue
		}
		prog := p.cfg.Prog
		g := analysis.Graph(prog)
		bc, _ := analysis.Bytecode(prog)
		plans := []struct {
			plan *core.Plan
			into *[]float64
		}{
			{core.BuildPlan(g, smp.window, core.AllFeatures()), &r.all},
			{core.BuildPlan(g, smp.window, core.Features{Static: true}), &r.static},
			{core.BuildPlan(g, smp.window, core.Features{ControlFlow: true}), &r.cf},
			{core.BuildPlan(g, smp.window, core.Features{DataFlow: true}), &r.df},
		}
		for rep := 0; rep < replayReps; rep++ {
			for _, spec := range smp.specs {
				t0 := time.Now()
				bc.Run(vm.Config{Seed: spec.Seed, MaxSteps: spec.MaxSteps, PreemptMean: spec.PreemptMean, Workload: spec.Workload})
				r.bare = append(r.bare, us(time.Since(t0)))
				for _, pl := range plans {
					t0 := time.Now()
					core.RunInstrumented(pl.plan, spec)
					*pl.into = append(*pl.into, us(time.Since(t0)))
				}
			}
		}
	}
	return r
}

// localLayerMetrics derives the vm, hw and core per-layer metrics of a
// traced local phase.
func localLayerMetrics(out map[string]float64, sum map[string]*layerStats, lt *localLayers, r replayed) {
	n := float64(max(lt.diagnoses, 1))
	perDiag := func(name string) float64 {
		if ls := sum[name]; ls != nil {
			return ms(ls.Total) / n
		}
		return 0
	}
	out["core.plan_ms"] = perDiag("core.plan")
	out["core.dispatch_ms"] = perDiag("core.dispatch")
	out["core.admit_ms"] = perDiag("core.admit")
	out["core.rank_ms"] = perDiag("core.rank")
	out["core.decide_ms"] = perDiag("core.decide")
	out["core.snapshot_ms"] = perDiag("core.snapshot")
	if ls := sum["core.plan"]; ls != nil {
		out["core.iterations"] = float64(ls.Count) / n
	}
	runs := &layerStats{}
	if ls := sum["hw.run"]; ls != nil {
		runs = ls
	}
	out["core.runs_executed"] = float64(runs.Count) / n
	out["core.runs_admitted"] = float64(lt.runsAdmitted) / n
	out["core.useful_run_frac"] = frac(float64(lt.runsAdmitted), float64(runs.Count))
	if ls := sum["core.dispatch"]; ls != nil {
		out["core.dispatch_wait_frac"] = frac(float64(ls.Total-ls.Self), float64(ls.Total))
	}
	out["hw.runs"] = float64(runs.Count)
	out["hw.run_us_p50"] = quantile(runs.Durs, 0.50)
	out["hw.run_us_p99"] = quantile(runs.Durs, 0.99)
	out["vm.bare_run_us_p50"] = quantile(r.bare, 0.50)
	out["vm.bare_run_us_p99"] = quantile(r.bare, 0.99)
	out["hw.instr_over_bare"] = frac(quantile(r.all, 0.50), quantile(r.bare, 0.50))
	out["hw.run_us.static_p50"] = quantile(r.static, 0.50)
	out["hw.run_us.cf_p50"] = quantile(r.cf, 0.50)
	out["hw.run_us.df_p50"] = quantile(r.df, 0.50)
}

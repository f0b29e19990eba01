package core

import (
	"sort"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// RunSpec identifies one production run at one endpoint.
type RunSpec struct {
	EndpointID  int
	Seed        int64
	Workload    vm.Workload
	PreemptMean int
	MaxSteps    int64
}

// RunTrace is what an endpoint ships back to the Gist server for one run:
// the run outcome, the decoded control flow of the tracked regions, the
// watchpoint trap log (values + total order of shared accesses), and the
// overhead meter.
type RunTrace struct {
	Spec    RunSpec
	Outcome *vm.Outcome

	// Flow holds, per thread (= per PT core), the decoded instruction
	// sequences of the traced regions, concatenated in per-core order.
	Flow map[int][]int
	// Branches holds, per thread, the conditional-branch outcomes the
	// decoder recovered from TNT bits.
	Branches map[int][]pt.BranchObs
	// Executed is the set of instructions observed by control-flow
	// tracking (union of Flow).
	Executed map[int]bool
	// Traps is the watchpoint access log in global clock order.
	Traps []watch.Trap
	// WatchMisses counts shared accesses in the watch group that could
	// not be watched because all debug registers were armed (triggers
	// cooperative partitioning pressure).
	WatchMisses int

	Meter cost.Meter
	// DecodeErr reports a PT decode problem (trace corruption) that
	// salvage could not recover from; the run still contributes its
	// outcome, but the server must not feed its flow/branch data to
	// predictor extraction.
	DecodeErr error
	// SalvagedCores counts cores whose corrupt trace was partially
	// recovered by PSB resynchronization (SalvageDecode).
	SalvagedCores int
	// Late marks a report that arrived past the server's per-run
	// deadline (a hung endpoint); the server discards it.
	Late bool
	// DroppedTraps / ReorderedTraps count trap-log damage injected in
	// flight, for fleet-health accounting.
	DroppedTraps   int
	ReorderedTraps int
	// Truncated names the RunTrace field a truncation fault ate.
	Truncated faults.TruncateKind
}

// Failed reports whether the traced run failed.
func (rt *RunTrace) Failed() bool { return rt.Outcome.Failed }

// RunInstrumented executes one production run under the plan's
// instrumentation and collects the traces — the Gist client (Fig. 2,
// steps 2 and 4) — on a perfectly reliable endpoint.
func RunInstrumented(plan *Plan, spec RunSpec) *RunTrace {
	return RunInstrumentedFaults(plan, spec, faults.Decision{})
}

// RunInstrumentedFaults is RunInstrumented on a fallible endpoint: the
// decision injects the production failure modes of the fleet (endpoint
// crash, hang, ring-buffer overflow, trace corruption, trap loss and
// reordering, report truncation). A zero decision injects nothing and
// behaves byte-identically to RunInstrumented. A crashed endpoint
// returns nil: its report never reaches the server.
func RunInstrumentedFaults(plan *Plan, spec RunSpec, dec faults.Decision) *RunTrace {
	if dec.Crash {
		return nil
	}
	rt := &RunTrace{
		Spec:     spec,
		Flow:     make(map[int][]int),
		Branches: make(map[int][]pt.BranchObs),
		Executed: make(map[int]bool),
	}
	tracer := pt.NewTracer(pt.Config{BufBytes: dec.BufBytes(0)}, &rt.Meter)
	unit := watch.NewUnit(&rt.Meter)

	var hooks vm.Hooks
	if plan.Feats.ControlFlow {
		// The VM calls OnStep only at the plan's start and stop points,
		// at each thread's first step (which adds the thread's core), and
		// at a thread's first step after a stop point. That step performs
		// the stop's Disable, deferred so the stop instruction's own
		// packets are recorded first. In the §6 extended-PT mode tracing
		// is simply always on: the whole point of the extension is that
		// trace cost is low enough to keep PT running, with data packets
		// making watchpoints unnecessary.
		var stopIP []int // per thread: the pending Disable's anchor, or -1
		hooks = vm.Hooks{
			StepFilter: plan.steps,
			OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
				for len(stopIP) <= t.ID {
					stopIP = append(stopIP, -1)
				}
				tracer.AddCore(t.ID)
				if ip := stopIP[t.ID]; ip >= 0 {
					tracer.Disable(t.ID, ip)
					stopIP[t.ID] = -1
				}
				f := plan.steps[in.ID]
				if plan.Feats.ExtendedPT || f&ptStart != 0 {
					tracer.Enable(t.ID, in.ID)
				}
				if f&vm.StepNext != 0 && tracer.Enabled(t.ID) {
					stopIP[t.ID] = in.ID
				}
			},
			// A thread still traced when the run ends stops at the last
			// instruction it stepped.
			OnLastStep: func(t *vm.Thread, in *ir.Instr) { tracer.Disable(t.ID, in.ID) },
			OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
				tracer.Branch(t.ID, in.ID, taken)
			},
			OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
				if in.Op == ir.OpCall || in.Op == ir.OpRet {
					tracer.TIP(t.ID, in.ID, target.ID)
				}
			},
		}
	}
	// Loads and stores stay hooked on every access: a trap can come from
	// any instruction that touches a watched address.
	if plan.Feats.DataFlow && plan.Feats.ExtendedPT && plan.Feats.ControlFlow {
		// Extended-PT data flow (§6): every shared access inside a traced
		// region becomes a PTW packet; no debug registers, no groups.
		data := func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64, isWrite bool) {
			if !vm.IsStackAddr(addr) {
				tracer.Data(t.ID, in.ID, addr, val, size, isWrite, clock)
			}
		}
		hooks.OnLoad = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			data(t, in, addr, val, size, clock, false)
		}
		hooks.OnStore = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			data(t, in, addr, val, size, clock, true)
		}
	} else if plan.Feats.DataFlow && plan.watchAt != nil {
		group := int16(plan.GroupOf(spec.EndpointID) + 1)
		var armed [watch.NumRegisters]bool // by class slot within the group
		access := func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64, isWrite bool) {
			// Arm a watchpoint the first time a tracked access touches its
			// location class (conceptually inserted right before the
			// access, so the triggering access itself traps too). One
			// debug register per class: the watchpoint watches "the
			// variable", so an array walk does not drain the register
			// file.
			if w := plan.watchAt[in.ID]; w.group == group && !armed[w.class] && !vm.IsStackAddr(addr) && !unit.Watched(addr, size) {
				if _, err := unit.SetAny(watch.Watchpoint{Addr: addr, Size: size, Kind: watch.KindReadWrite}); err != nil {
					rt.WatchMisses++
				} else {
					armed[w.class] = true
				}
			}
			unit.CheckAccess(t.ID, in.ID, addr, size, val, isWrite, clock)
		}
		hooks.OnLoad = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			access(t, in, addr, val, size, clock, false)
		}
		hooks.OnStore = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			access(t, in, addr, val, size, clock, true)
		}
	}

	execSpan := plan.Telemetry.StartSpan(telemetry.PhaseRunExec)
	rt.Outcome = plan.Engine.exec(plan.Prog, vm.Config{
		Seed:        spec.Seed,
		MaxSteps:    spec.MaxSteps,
		PreemptMean: spec.PreemptMean,
		Workload:    spec.Workload,
		Hooks:       hooks,
	}, plan.Telemetry)
	execSpan.End()
	// The machine clock counts every retired instruction exactly once.
	rt.Meter.AddInstr(rt.Outcome.Steps)

	if plan.Feats.ControlFlow {
		decodeSpan := plan.Telemetry.StartSpan(telemetry.PhaseDecode)
		for _, core := range tracer.Cores() {
			buf, wrapped := tracer.CoreBytes(core)
			buf = dec.CorruptTrace(buf)
			segs, branches, data, err := pt.DecodeFull(plan.Prog, buf, wrapped)
			if err != nil {
				// Corrupt trace: salvage the PSB-delimited chunks that
				// still parse and replay; only when nothing survives is
				// the core's flow abandoned (DecodeErr tells the server
				// to keep this run away from predictor extraction).
				var srep pt.SalvageReport
				segs, branches, data, srep = pt.SalvageDecode(plan.Prog, buf, wrapped)
				if !srep.Recovered() {
					rt.DecodeErr = err
					continue
				}
				rt.SalvagedCores++
			}
			rt.Branches[core] = branches
			for _, seg := range segs {
				rt.Flow[core] = append(rt.Flow[core], seg.Instrs...)
				for _, id := range seg.Instrs {
					rt.Executed[id] = true
				}
			}
			// Extended-PT data packets become the access log, exactly as
			// watchpoint traps would (the TSC is the total order).
			for _, d := range data {
				rt.Traps = append(rt.Traps, watch.Trap{
					Addr: d.Addr, Val: d.Val, Size: d.Size,
					IsWrite: d.IsWrite, InstrID: d.IP, Thread: core, Clock: d.TSC,
				})
			}
		}
		sort.Slice(rt.Traps, func(i, j int) bool { return rt.Traps[i].Clock < rt.Traps[j].Clock })
		decodeSpan.End()
	}
	// The decoded flow now lives in the RunTrace; the raw ring buffers
	// can go back to the pool for the next run on this worker.
	tracer.Release()
	watchSpan := plan.Telemetry.StartSpan(telemetry.PhaseWatch)
	if plan.Feats.DataFlow && !plan.Feats.ExtendedPT {
		rt.Traps = unit.Traps()
	}
	unit.Release()
	rt.applyTransitFaults(dec)
	watchSpan.End()
	return rt
}

// applyTransitFaults degrades the finished RunTrace the way the network
// path between endpoint and server can: dropped/reordered trap records,
// truncated fields, and a hung report that will miss the deadline.
func (rt *RunTrace) applyTransitFaults(dec faults.Decision) {
	if !dec.Any() {
		return
	}
	rt.Traps, rt.DroppedTraps, rt.ReorderedTraps = dec.ApplyTraps(rt.Traps)
	switch dec.Truncate {
	case faults.TruncateOutcome:
		rt.Outcome = nil
	case faults.TruncateTraps:
		rt.Traps = rt.Traps[:dec.TruncateAt(len(rt.Traps))]
	case faults.TruncateBranches:
		var cores []int
		for core := range rt.Branches {
			cores = append(cores, core)
		}
		sort.Ints(cores)
		if len(cores) > 0 {
			delete(rt.Branches, dec.PickCore(cores))
		}
	}
	rt.Truncated = dec.Truncate
	rt.Late = dec.Hang
}

// FilterTraps keeps only traps on addresses that some relevant
// instruction (per isRelevant) accessed in this run. The watchpoint unit
// gives this behavior in hardware (only slice-armed addresses trap); the
// extended-PT mode logs every shared access in traced regions, so the
// server applies the same address-relevance filter in software.
func (rt *RunTrace) FilterTraps(isRelevant func(instrID int) bool) {
	relevant := make(map[int64]bool)
	for _, tr := range rt.Traps {
		if isRelevant(tr.InstrID) {
			relevant[tr.Addr] = true
		}
	}
	var kept []watch.Trap
	for _, tr := range rt.Traps {
		if relevant[tr.Addr] {
			kept = append(kept, tr)
		}
	}
	rt.Traps = kept
}

// BranchOutcomes returns each traced conditional branch's observed
// outcomes (a branch can take both arms in one run), straight from the
// decoder's TNT consumption.
func (rt *RunTrace) BranchOutcomes(prog *ir.Program) map[int]map[bool]bool {
	out := make(map[int]map[bool]bool)
	for _, obs := range rt.Branches {
		for _, o := range obs {
			m := out[o.IP]
			if m == nil {
				m = make(map[bool]bool)
				out[o.IP] = m
			}
			m[o.Taken] = true
		}
	}
	return out
}

package bytecode_test

// The bytecode engine's contract is total observational equivalence
// with the interpreter: same outcomes, same failure-report bytes, and
// the same hook event stream at the same clocks. These tests check that
// contract directly at the engine level (the experiments package checks
// it again end-to-end through the whole diagnosis pipeline).

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// bugVMConfig mirrors how the pipeline configures raw runs for a bug.
func bugVMConfig(b *bugs.Bug, seed int64) vm.Config {
	cfg := vm.Config{Seed: seed, MaxSteps: 200_000, PreemptMean: 3}
	if b.PreemptMean > 0 {
		cfg.PreemptMean = b.PreemptMean
	}
	if len(b.Workloads) > 0 {
		cfg.Workload = b.Workloads[int(seed)%len(b.Workloads)]
	}
	return cfg
}

func reportEqual(t *testing.T, name string, seed int64, a, b *vm.FailureReport) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s seed %d: interp report=%v bytecode report=%v", name, seed, a, b)
	}
	if a == nil {
		return
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s seed %d: reports differ\ninterp:   %#v\nbytecode: %#v", name, seed, a, b)
	}
	if a.ID() != b.ID() || a.String() != b.String() {
		t.Fatalf("%s seed %d: report identity differs: %q vs %q", name, seed, a.ID(), b.ID())
	}
}

func outcomesEqual(t *testing.T, name string, seed int64, a, b *vm.Outcome) {
	t.Helper()
	if a.Failed != b.Failed || a.Exit != b.Exit || a.Steps != b.Steps {
		t.Fatalf("%s seed %d: outcomes differ: interp {failed=%v exit=%d steps=%d} bytecode {failed=%v exit=%d steps=%d}",
			name, seed, a.Failed, a.Exit, a.Steps, b.Failed, b.Exit, b.Steps)
	}
	if !reflect.DeepEqual(a.Prints, b.Prints) {
		t.Fatalf("%s seed %d: prints differ: %v vs %v", name, seed, a.Prints, b.Prints)
	}
	reportEqual(t, name, seed, a.Report, b.Report)
}

// TestDifferentialOutcomes runs every suite bug on both engines across
// many seeds and requires identical outcomes, including failure-report
// bytes.
func TestDifferentialOutcomes(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			for seed := int64(0); seed < 30; seed++ {
				cfg := bugVMConfig(b, seed)
				want := vm.Run(b.Program(), cfg)
				got, _ := prog.Run(cfg)
				outcomesEqual(t, b.Name, seed, want, got)
			}
		})
	}
}

// TestDifferentialHookStream compares the full tracing-hook event
// streams — what PT, the watchpoint unit, and the replay recorder all
// consume — on the concurrency-heavy bugs, with no step filter and with
// one. Unfiltered, OnStep fires at every step in clock order. Filtered,
// both engines emit exactly the unfiltered stream thinned by the filter
// rule. Either way both engines report the same last stepped
// instruction per thread when the run ends.
func TestDifferentialHookStream(t *testing.T) {
	names := []string{"pbzip2", "apache-3", "deadlock", "curl", "memcached"}
	for _, name := range names {
		b := bugs.ByName(name)
		if b == nil {
			t.Fatalf("unknown bug %s", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			filter := testStepFilter(len(b.Program().Instrs))
			for seed := int64(0); seed < 10; seed++ {
				cfg := bugVMConfig(b, seed)
				var full []hookEvent
				for _, f := range [][]vm.StepFlag{nil, filter} {
					var interpEvents, bcEvents []hookEvent
					c1 := cfg
					c1.Hooks = recordingHooks(&interpEvents, f)
					c2 := cfg
					c2.Hooks = recordingHooks(&bcEvents, f)
					want := vm.Run(b.Program(), c1)
					got, _ := prog.Run(c2)
					outcomesEqual(t, name, seed, want, got)
					eventsEqual(t, name, seed, "interp", interpEvents, "bytecode", bcEvents)
					if f == nil {
						full = interpEvents
						everyStepFires(t, name, seed, full, want.Steps)
					} else {
						eventsEqual(t, name, seed, "thinned", thinSteps(full, f), "filtered", interpEvents)
					}
				}
				// The end-of-run report needs no other hook.
				var lastOnly []hookEvent
				c := cfg
				c.Hooks = vm.Hooks{OnLastStep: recordingHooks(&lastOnly, nil).OnLastStep}
				prog.Run(c)
				eventsEqual(t, name, seed, "full run", lastSteps(full), "last-step only", lastOnly)
			}
		})
	}
}

// hookEvent is one recorded hook call; step events keep their thread
// and instruction so a stream can be thinned by a filter.
type hookEvent struct {
	step       bool
	tid, instr int
	clock      int64
	text       string
}

func recordingHooks(events *[]hookEvent, filter []vm.StepFlag) vm.Hooks {
	add := func(format string, args ...any) {
		*events = append(*events, hookEvent{text: fmt.Sprintf(format, args...)})
	}
	return vm.Hooks{
		StepFilter: filter,
		OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
			*events = append(*events, hookEvent{
				step: true, tid: t.ID, instr: in.ID, clock: clock,
				text: fmt.Sprintf("step t%d %%%d @%d", t.ID, in.ID, clock),
			})
		},
		OnLastStep: func(t *vm.Thread, in *ir.Instr) {
			add("last t%d %%%d", t.ID, in.ID)
		},
		OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			add("branch t%d %%%d taken=%v @%d", t.ID, in.ID, taken, clock)
		},
		OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			add("indirect t%d %%%d -> %%%d @%d", t.ID, in.ID, target.ID, clock)
		},
		OnLoad: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			add("load t%d %%%d [%#x]=%d sz%d @%d", t.ID, in.ID, addr, val, size, clock)
		},
		OnStore: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			add("store t%d %%%d [%#x]=%d sz%d @%d", t.ID, in.ID, addr, val, size, clock)
		},
		OnSchedule: func(from, to int, clock int64) {
			add("sched %d->%d @%d", from, to, clock)
		},
		OnSpawn: func(parent, child int, fn *ir.Func, clock int64) {
			add("spawn %d->%d %s @%d", parent, child, fn.Name, clock)
		},
	}
}

func eventsEqual(t *testing.T, name string, seed int64, wantName string, want []hookEvent, gotName string, got []hookEvent) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s seed %d: %d %s events vs %d %s events", name, seed, len(want), wantName, len(got), gotName)
	}
	for i := range want {
		if want[i].text != got[i].text {
			t.Fatalf("%s seed %d: event %d differs:\n%s: %s\n%s: %s",
				name, seed, i, wantName, want[i].text, gotName, got[i].text)
		}
	}
}

// everyStepFires checks the unfiltered contract: one OnStep per step,
// at clocks 0..steps-1 in order.
func everyStepFires(t *testing.T, name string, seed int64, events []hookEvent, steps int64) {
	t.Helper()
	var n int64
	for _, e := range events {
		if !e.step {
			continue
		}
		if e.clock != n {
			t.Fatalf("%s seed %d: step %d fired at clock %d", name, seed, n, e.clock)
		}
		n++
	}
	if n != steps {
		t.Fatalf("%s seed %d: %d OnStep calls for %d steps", name, seed, n, steps)
	}
}

// testStepFilter flags a spread of instructions, and sets an owner bit
// the VM must ignore.
func testStepFilter(n int) []vm.StepFlag {
	f := make([]vm.StepFlag, n)
	for id := range f {
		if id%5 == 0 {
			f[id] |= vm.StepAt
		}
		if id%7 == 0 {
			f[id] |= vm.StepNext
		}
		if id%3 == 0 {
			f[id] |= 1 << 6
		}
	}
	return f
}

// lastSteps keeps a stream's end-of-run reports.
func lastSteps(events []hookEvent) []hookEvent {
	var out []hookEvent
	for _, e := range events {
		if strings.HasPrefix(e.text, "last ") {
			out = append(out, e)
		}
	}
	return out
}

// thinSteps applies the StepFilter rule to an unfiltered stream: a step
// event survives at a StepAt instruction, at its thread's first step,
// and at its thread's first step after a StepNext instruction.
func thinSteps(events []hookEvent, filter []vm.StepFlag) []hookEvent {
	var out []hookEvent
	pending := make(map[int]bool)
	for _, e := range events {
		if !e.step {
			out = append(out, e)
			continue
		}
		next, seen := pending[e.tid]
		if filter[e.instr]&vm.StepAt != 0 || next || !seen {
			out = append(out, e)
		}
		pending[e.tid] = filter[e.instr]&vm.StepNext != 0
	}
	return out
}

// TestMachineReuse drives one machine through many heterogeneous runs
// and requires each to match a cold interpreter run — the reset/reuse
// contract the fleet's pooling depends on (stale stacks, heap contents,
// strings or RNG state would all surface here).
func TestMachineReuse(t *testing.T) {
	for _, name := range []string{"pbzip2", "sqlite", "transmission", "deadlock"} {
		b := bugs.ByName(name)
		prog := bytecode.Compile(b.Program())
		m := bytecode.NewMachine(prog)
		for round := 0; round < 3; round++ {
			for seed := int64(0); seed < 8; seed++ {
				cfg := bugVMConfig(b, seed)
				want := vm.Run(b.Program(), cfg)
				got := m.Run(cfg)
				outcomesEqual(t, name+"-reuse", seed, want, got)
			}
		}
	}
}

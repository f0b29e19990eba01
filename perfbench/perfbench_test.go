package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
)

// tiny is a small configuration of workload w: two bugs, short phases,
// one set-up.
func tiny(t *testing.T, w string, trace bool) options {
	t.Helper()
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return options{
		workload: w, seed: 7, length: 300 * time.Millisecond, trace: trace,
		bugs:   []*bugs.Bug{bugs.ByName("deadlock"), bugs.ByName("curl")},
		setups: 1, digests: digests,
		novelRate: 10, recurringRate: 200, recurringTenants: 1,
	}
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type printed struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func render(t *testing.T, out *outcome, specs []metricSpec) printed {
	t.Helper()
	line, err := out.result(specs)
	if err != nil {
		t.Fatal(err)
	}
	var p printed
	if err := json.Unmarshal(line, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTinyRunsPrintEveryMetric runs every workload untraced and traced at
// a tiny size and checks that the output carries every metric
// BENCHMARK.json names, with its unit, and that every sketch passed.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := run(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			specs, want := endToEnd, d.EndToEnd
			if trace {
				specs, want = perLayer(), d.PerLayer
			}
			if len(specs) != len(want) {
				t.Fatalf("%s trace=%v: benchmark declares %d metrics, BENCHMARK.json %d", w, trace, len(specs), len(want))
			}
			p := render(t, out, specs)
			if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, p.Correct, p.Attempted, p.Failed)
			}
			for _, m := range want {
				got, ok := p.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if p.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
					}
				}
			}
		}
	}
}

// TestTamperedDigestFails checks that a sketch whose digest does not
// match the committed one is a failed, incorrect operation.
func TestTamperedDigestFails(t *testing.T) {
	o := tiny(t, "local-suite", false)
	tampered := map[string]string{}
	for k, v := range o.digests {
		tampered[k] = v
	}
	tampered["curl"] = "00" + tampered["curl"][2:]
	o.digests = tampered
	out, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	p := render(t, out, endToEnd)
	if p.Correct || p.Failed == 0 {
		t.Fatalf("tampered digest: correct=%v failed=%d, want an incorrect run with failures", p.Correct, p.Failed)
	}
	if p.Failed*2 != p.Attempted {
		t.Errorf("failed=%d of %d; want exactly the curl diagnoses (half) to fail", p.Failed, p.Attempted)
	}
}

// TestStallChargedToDueRequests stalls the open-loop generator and checks
// that every request that fell due during the stall is timed from when it
// was due, so it carries the rest of the stall.
func TestStallChargedToDueRequests(t *testing.T) {
	const (
		n       = 40
		every   = 2 * time.Millisecond
		stallAt = 10
		stall   = 30 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	var mu sync.Mutex
	lat := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	late := openLoop(start, due, func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	}, func(i int, at time.Time) {
		mu.Lock()
		lat[i] = time.Since(at)
		mu.Unlock()
	})
	stallEnd := due[stallAt] + stall
	for i := stallAt; i < n && due[i] < stallEnd; i++ {
		owed := stallEnd - due[i]
		if lat[i] < owed || late[i] < owed {
			t.Errorf("request %d was due %v before the stall ended, but latency=%v late=%v", i, owed, lat[i], late[i])
		}
	}
	for i := 0; i < stallAt; i++ {
		if lat[i] >= stall {
			t.Errorf("request %d was sent before the stall but charged %v", i, lat[i])
		}
	}
}

// TestThreadCPUExcludesWaiting checks that the clock service-recurring
// times its requests by advances while the thread computes and stands
// still while it sleeps.
func TestThreadCPUExcludesWaiting(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	for time.Since(t0) < 30*time.Millisecond {
	}
	if spun := threadCPU() - c0; spun < 10*time.Millisecond {
		t.Errorf("30ms of spinning charged %v of thread CPU time", spun)
	}
	c1 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := threadCPU() - c1; slept > 10*time.Millisecond {
		t.Errorf("50ms of sleeping charged %v of thread CPU time", slept)
	}
}

// TestTimedOutCampaignFails submits a report to a service with no agents,
// so its campaign never finishes, and checks that the diagnosis times out
// as a failed operation charged at least the phase length.
func TestTimedOutCampaignFails(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	s, err := setupSuite([]*bugs.Bug{bugs.ByName("deadlock")}, digests)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(s, 0)
	defer r.close()
	r.waitLimit = 100 * time.Millisecond
	_, v := r.diagnose(r.client("idle", "reporter"), "idle", s.bugs[0], nil, 0, "")
	if v != errored {
		t.Fatalf("diagnosis without agents: verdict %d, want errored (%d)", v, errored)
	}
	ph := newPhase(time.Second)
	ph.record("deadlock", r.waitLimit, v)
	if ph.failed != 1 || ph.wrong != 0 || ph.lat[0] < 1000 {
		t.Errorf("timed-out diagnosis recorded as failed=%d wrong=%d latency=%vms, want 1, 0, >= 1000ms", ph.failed, ph.wrong, ph.lat[0])
	}
}

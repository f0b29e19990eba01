package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
)

// phase records one timed phase of a workload.
type phase struct {
	length time.Duration // the nominal phase length, charged to failed operations

	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int                  // failed operations that returned a wrong answer
	lat       []float64            // ms per operation
	byKind    map[string][]float64 // ms per operation, by bug or request kind
	late      []time.Duration      // how late the generator sent each request, open loop only
	elapsed   time.Duration
	heapMean  uint64
	quality   *quality
}

func newPhase(length time.Duration) *phase {
	return &phase{length: length, byKind: map[string][]float64{}, quality: newQuality()}
}

// verdict is how one operation ended.
type verdict int

const (
	passed  verdict = iota
	errored         // an error, a refusal or a timeout
	wrong           // an answer that failed the correctness gate
)

// record logs one operation. A failed operation counts as missing any
// latency limit: it enters the latency sample at no less than the phase
// length.
func (ph *phase) record(kind string, d time.Duration, v verdict) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if v != passed {
		ph.failed++
		d = max(d, ph.length)
	}
	if v == wrong {
		ph.wrong++
	}
	ph.lat = append(ph.lat, ms(d))
	ph.byKind[kind] = append(ph.byKind[kind], ms(d))
}

// stolen returns how much CPU time the hypervisor has taken from this
// machine so far, per CPU: the steal column of /proc/stat (in the 10 ms
// ticks Linux reports it in) over the CPU count; 0 where it is not
// available. On a shared host another guest can take a third of the CPU
// time one minute and almost none the next; wall-clock figures of
// CPU-bound work move with it, by the same amount whatever the code does.
// Subtracting the stolen time over an interval leaves the time the
// machine was actually running this program.
func stolen() time.Duration {
	_, steal, ok := cpuTimes()
	if !ok {
		return 0
	}
	return time.Duration(steal * float64(10*time.Millisecond) / float64(runtime.NumCPU()))
}

// addQuality logs the diagnosis behind a served sketch.
func (ph *phase) addQuality(b *bugs.Bug, res *core.Result) {
	ph.mu.Lock()
	ph.quality.add(b, res)
	ph.mu.Unlock()
}

// metrics fills the end-to-end metrics measured in this phase.
func (ph *phase) metrics(out map[string]float64) {
	out["ops_per_s"] = float64(ph.attempted-ph.failed) / ph.elapsed.Seconds()
	out["latency_ms_p50"] = windowedQuantile(ph.lat, 0.50, 0.90)
	out["latency_ms_p90"] = windowedQuantile(ph.lat, 0.90, 0.90)
	out["ok_frac"] = float64(ph.attempted-ph.failed) / float64(max(ph.attempted, 1))
	out["heap_inuse_mb"] = float64(ph.heapMean) / (1 << 20)
	ph.quality.metrics(out)
}

// heapSampler samples the heap in use (HeapInuse: object bytes plus the
// unused remainder of in-use spans) every 5 ms until stopped and reports
// the mean. The peak, whether the single highest sample or the median of
// per-second peaks, of the heap in use or of the live heap, swung by a
// quarter to a third between runs with where collections landed; the
// mean over the phase's hundreds of collections held within a few
// percent.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var sum, n uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			sum += samples[0].Value.Uint64() + samples[1].Value.Uint64()
			n++
			select {
			case <-h.stop:
				h.done <- sum / n
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the mean heap in use.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

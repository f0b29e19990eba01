package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// evenSchedule returns n arrival offsets spaced 1/rate seconds apart.
func evenSchedule(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, conditioned on the n arrivals falling within n/rate
// seconds: sorted uniform draws over that span. Fixing the span keeps the
// offered load of every seed the same while arrivals stay bursty.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	span := float64(n) / rate * float64(time.Second)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends request i at start+due[i] whether or not earlier
// requests have completed, each on its own goroutine, and returns once
// every request has completed. send receives the time the request was
// due; callers time the request from it, so a stall in the generator is
// charged to every request that fell due during the stall. The returned
// slice holds how late each request was sent.
//
// stall, when non-nil, is called before request i is sent; tests use it
// to inject a generator stall.
func openLoop(start time.Time, due []time.Duration, stall func(i int), send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, off := range due {
		at := start.Add(off)
		waitUntil(at)
		if stall != nil {
			stall(i)
		}
		late[i] = time.Since(at)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			send(i, at)
		}(i, at)
	}
	wg.Wait()
	return late
}

// pacedLoop runs one caller per schedule. A caller sends its request j
// at start+due[j], or as soon as its previous request has completed if
// that is later, so at most one request per caller is ever outstanding:
// a stall delays the callers, it does not pile up a backlog. send
// receives the caller, the request's index within that caller's
// schedule, and the time it was sent. Each caller keeps one OS thread for
// its whole schedule, so send may time a request by that thread's CPU
// clock. The returned slices hold how late each request was sent.
func pacedLoop(start time.Time, due [][]time.Duration, send func(caller, j int, sent time.Time)) [][]time.Duration {
	late := make([][]time.Duration, len(due))
	var wg sync.WaitGroup
	for c := range due {
		late[c] = make([]time.Duration, len(due[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for j, off := range due[c] {
				at := start.Add(off)
				waitUntil(at)
				sent := time.Now()
				late[c][j] = sent.Sub(at)
				send(c, j, sent)
			}
		}(c)
	}
	wg.Wait()
	return late
}

// waitUntil blocks until t. Go's timers on Linux wake up to a
// millisecond late, which at thousands of requests per second would be
// most of a request's latency, so the last stretch sleeps in nanosleep
// (which wakes 50-120µs late) and spins only for whatever remains.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
	}
	if d := time.Until(t); d > nanosleepSlack {
		ts := syscall.NsecToTimespec(int64(d - nanosleepSlack))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just spins longer
	}
	for time.Now().Before(t) {
	}
}

const nanosleepSlack = 50 * time.Microsecond

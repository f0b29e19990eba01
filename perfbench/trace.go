package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// span is one timed call into a layer. Key correlates the spans of one
// diagnosis or request; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span.
type active struct {
	t *tracer
	s span
}

// begin opens a span; on a nil tracer it returns nil, and every method of
// a nil *active is a no-op.
func (t *tracer) begin(name, key string, parent int64) *active {
	return t.beginAt(time.Now(), name, key, parent)
}

// beginAt opens a span that started at a given time, such as the moment
// an open-loop request fell due.
func (t *tracer) beginAt(at time.Time, name, key string, parent int64) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Key: key,
		Start: int64(at.Sub(t.epoch)),
	}}
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// layerStats summarises the spans of one name.
type layerStats struct {
	Count int
	Total time.Duration
	// Self is Total minus the time the spans' children cover.
	Self time.Duration
	// Durs holds each span's duration in microseconds.
	Durs []float64
}

// summarize groups spans by name, computing self time as each span's
// duration minus the union of its children's intervals.
func (t *tracer) summarize() map[string]*layerStats {
	out := map[string]*layerStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.Count++
		ls.Total += s.dur()
		ls.Self += s.dur() - covered(s, children[s.ID])
		ls.Durs = append(ls.Durs, us(s.dur()))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write saves the spans and the environment record as JSON.
func (t *tracer) write(path string, env envRecord) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   envRecord `json:"env"`
		Spans []span    `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- seams wrapped from outside the program -------------------------

// spanCtxKey carries the parent span and correlation key of a wire call
// through the request context into the timing RoundTripper.
type spanCtxKey struct{}

type spanCtx struct {
	parent int64
	key    string
}

func withSpan(ctx context.Context, parent int64, key string) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{parent, key})
}

// probes gates and collects the timing seams of one service. The seams
// stay installed for the service's whole life but record nothing until a
// tracer is set, so an untraced phase runs through them at the cost of
// one atomic load per call.
type probes struct {
	tr    atomic.Pointer[tracer]
	wire  wireStats
	store storeStats
}

// wireStats accumulates what the timing RoundTripper sees.
type wireStats struct {
	mu       sync.Mutex
	requests int
	failures int // attempts that errored or were refused; the client retries them
	bytes    int64
	grants   int // polls that carried a task
}

// agentStats is one agent's view of the wire: time spent inside poll
// calls, and the gaps from an upload acknowledgement to the next grant.
type agentStats struct {
	mu         sync.Mutex
	pollTime   time.Duration
	lastUpload time.Time
	gaps       []float64 // ms
}

// timingTransport times every wire round trip as a span named
// "wire<path>" and counts requests, refusals and bytes.
type timingTransport struct {
	next  http.RoundTripper
	p     *probes
	agent *agentStats // nil for reporters and readers
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.p.tr.Load()
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	sc, _ := req.Context().Value(spanCtxKey{}).(spanCtx)
	path := req.URL.Path
	sp := tr.begin("wire"+path, sc.key, sc.parent)
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	sp.end()
	n := req.ContentLength
	failed := err != nil || resp.StatusCode != http.StatusOK
	granted := false
	if err == nil {
		n += resp.ContentLength
		if path == service.PathPoll && !failed {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				return nil, rerr
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			granted = bytes.Contains(body, []byte(`"task":`))
		}
	}
	ws := &t.p.wire
	ws.mu.Lock()
	ws.requests++
	ws.bytes += n
	if failed {
		ws.failures++
	}
	if granted {
		ws.grants++
	}
	ws.mu.Unlock()
	if a := t.agent; a != nil {
		a.mu.Lock()
		switch path {
		case service.PathPoll:
			a.pollTime += end.Sub(start)
			if granted && !a.lastUpload.IsZero() {
				a.gaps = append(a.gaps, ms(end.Sub(a.lastUpload)))
				a.lastUpload = time.Time{}
			}
		case service.PathUpload:
			if !failed {
				a.lastUpload = end
			}
		}
		a.mu.Unlock()
	}
	return resp, err
}

// storeStats accumulates what the timing Backend sees.
type storeStats struct {
	mu           sync.Mutex
	writes       int
	reads        int
	bytesWritten int64
	writeUs      []float64
	readUs       []float64
}

// timingBackend times checkpoint reads and writes on the wrapped Backend.
type timingBackend struct {
	store.Backend
	p *probes
}

func (b *timingBackend) WriteFile(path string, data []byte, sync bool) error {
	tr := b.p.tr.Load()
	if tr == nil {
		return b.Backend.WriteFile(path, data, sync)
	}
	sp := tr.begin("store.write", "", 0)
	start := time.Now()
	err := b.Backend.WriteFile(path, data, sync)
	d := time.Since(start)
	sp.end()
	st := &b.p.store
	st.mu.Lock()
	st.writes++
	st.bytesWritten += int64(len(data))
	st.writeUs = append(st.writeUs, us(d))
	st.mu.Unlock()
	return err
}

func (b *timingBackend) ReadFile(path string) ([]byte, error) {
	tr := b.p.tr.Load()
	if tr == nil {
		return b.Backend.ReadFile(path)
	}
	sp := tr.begin("store.read", "", 0)
	start := time.Now()
	data, err := b.Backend.ReadFile(path)
	d := time.Since(start)
	sp.end()
	st := &b.p.store
	st.mu.Lock()
	st.reads++
	st.readUs = append(st.readUs, us(d))
	st.mu.Unlock()
	return data, err
}

// timedRunner is the in-process fleet behind core.Campaign.UseRunner: it
// runs a batch on width goroutines, as the campaign's own fleet does, and
// records a span per batch and per instrumented run.
type timedRunner struct {
	tr     *tracer
	width  int
	key    string
	parent int64 // the campaign stage that dispatched the batch

	mu     sync.Mutex
	sample *runSample // the latest batch, kept for the replay
}

// runSample is a fixed set of run specs with the window they were
// planned under, replayed bare and under feature subsets.
type runSample struct {
	window []int
	specs  []core.RunSpec
}

const sampleSpecs = 16

func (r *timedRunner) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	batch := r.tr.begin("core.batch", r.key, r.parent)
	defer batch.end()
	s := &runSample{window: append([]int(nil), plan.Tracked...)}
	for _, j := range jobs[:min(len(jobs), sampleSpecs)] {
		s.specs = append(s.specs, j.Spec)
	}
	r.mu.Lock()
	r.sample = s
	r.mu.Unlock()
	out := make([]*core.RunTrace, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(r.width, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sp := r.tr.begin("hw.run", r.key, batch.id())
				out[i] = core.RunInstrumentedFaults(plan, jobs[i].Spec, jobs[i].Dec)
				sp.end()
			}
		}()
	}
	wg.Wait()
	return out
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/store"
)

// agentsPerTenant is the fleet each tenant brings, on the agents'
// production-default poll settings.
const agentsPerTenant = 3

// campaignTimeout bounds the wait for one service campaign, about a
// hundred times a diagnosis under the service-novel load. A campaign still
// running after it is a timed-out, failed diagnosis.
const campaignTimeout = 30 * time.Second

// rig is one in-process diagnosis service on the in-memory backend,
// reached over LoopbackTransport through the timing seams, with its
// agents.
type rig struct {
	srv    *service.Server
	loop   http.RoundTripper
	pr     *probes
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// waitLimit is campaignTimeout; tests shorten it.
	waitLimit time.Duration
}

func newRig(s *suite, cacheBytes int64) *rig {
	r := &rig{pr: &probes{}, waitLimit: campaignTimeout}
	r.srv = service.NewServer(service.Options{
		Backend:          &timingBackend{Backend: store.NewMemBackend(), p: r.pr},
		SketchCacheBytes: cacheBytes,
		ConfigFor:        s.configFor,
	})
	r.loop = service.LoopbackTransport{Handler: r.srv.Handler()}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

// startAgents starts a tenant's agents; they serve until the rig closes.
func (r *rig) startAgents(tenant string) ([]*agentStats, error) {
	var out []*agentStats
	for a := 0; a < agentsPerTenant; a++ {
		as := &agentStats{}
		ag, err := agent.New(agent.Config{
			Server:    "http://gist",
			Tenant:    tenant,
			ID:        fmt.Sprintf("%s-agent%d", tenant, a),
			Transport: &timingTransport{next: r.loop, p: r.pr, agent: as},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, as)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = ag.Run(r.ctx)
		}()
	}
	return out, nil
}

func (r *rig) client(tenant, actor string) *service.Client {
	return service.NewClient(service.ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    tenant,
		Actor:     actor,
		Transport: &timingTransport{next: r.loop, p: r.pr},
	})
}

// close stops the agents and the server and waits for both.
func (r *rig) close() {
	r.cancel()
	r.srv.Close()
	r.wg.Wait()
}

// serverCounters is a snapshot of the server's public counters.
type serverCounters struct {
	counters service.Counters
	cache    ingest.CacheStats
	ingest   ingest.Stats
}

func (r *rig) counters() serverCounters {
	c := serverCounters{cache: r.srv.CacheStats(), ingest: r.srv.IngestStats()}
	c.counters, _ = r.srv.Snapshot()
	return c
}

// submit files p's failure report for tenant. A fresh signature launches
// a campaign; a known one folds into it.
func submit(ctx context.Context, cli *service.Client, tenant string, p *prepared, seed int64) (*service.SubmitResponse, error) {
	var resp service.SubmitResponse
	err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant: tenant, Bug: p.bug.Name, Report: p.report, Seed: seed, DiscoveryRuns: p.disc,
	}, &resp)
	return &resp, err
}

// fetch returns a finished campaign's sketch bytes.
func fetch(ctx context.Context, cli *service.Client, tenant string, p *prepared, sig string) ([]byte, error) {
	var sk service.SketchResponse
	if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: tenant, Bug: p.bug.Name, Signature: sig}, &sk); err != nil {
		return nil, err
	}
	if !sk.Ready {
		return nil, fmt.Errorf("%s/%s: sketch not ready", tenant, p.bug.Name)
	}
	return sk.Sketch, nil
}

// diagnose submits a novel report, waits for its campaign, fetches the
// sketch and checks it, returning the campaign's signature.
func (r *rig) diagnose(cli *service.Client, tenant string, p *prepared, tr *tracer, parent int64, key string) (string, verdict) {
	ctx := withSpan(r.ctx, parent, key)
	sub, err := submit(ctx, cli, tenant, p, p.cfg.SeedBase+int64(p.disc)-1)
	if err != nil {
		return "", errored
	}
	if sub.Duplicate {
		return "", wrong
	}
	sp := tr.begin("service.campaign", key, parent)
	v := r.waitCampaign(tenant, p.bug.Name, sub.Signature)
	sp.end()
	if v != passed {
		return "", v
	}
	sketch, err := fetch(ctx, cli, tenant, p, sub.Signature)
	if err != nil {
		return "", errored
	}
	return sub.Signature, p.check(sketch)
}

// waitCampaign waits up to r.waitLimit for a campaign to finish: passed
// when it finished, wrong when the server holds no such campaign, errored
// when the wait timed out. WaitCampaignSig takes no deadline, so the wait
// runs on its own goroutine; after a timeout that goroutine ends when the
// campaign does, at the latest when the server closes and writes its
// tasks off.
func (r *rig) waitCampaign(tenant, bug, sig string) verdict {
	done := make(chan bool, 1)
	go func() { done <- r.srv.WaitCampaignSig(tenant, bug, sig) }()
	t := time.NewTimer(r.waitLimit)
	defer t.Stop()
	select {
	case found := <-done:
		if !found {
			return wrong
		}
		return passed
	case <-t.C:
		return errored
	}
}

// novelPhase is the service-novel load: whole passes over the suite, one
// fresh tenant with its own agents per pass so every submit is novel,
// arriving open loop at an even rate reports per second in a seeded
// order. Each diagnosis is timed from when it was due, net of steal. Even
// spacing keeps seed-to-seed differences down to the bug order; Poisson
// bursts at 60 arrivals per run moved p90 by a third between seeds.
func novelPhase(r *rig, s *suite, rng *rand.Rand, length time.Duration, rate float64, tag string, tr *tracer) (*phase, []*agentStats, error) {
	type arrival struct {
		p      *prepared
		tenant string
		cli    *service.Client
	}
	n := len(s.bugs)
	passes := max(1, int(math.Ceil(length.Seconds()*rate/float64(n))))
	var arrivals []arrival
	var agents []*agentStats
	for pass := 0; pass < passes; pass++ {
		tenant := fmt.Sprintf("%s%d", tag, pass)
		as, err := r.startAgents(tenant)
		if err != nil {
			return nil, nil, err
		}
		agents = append(agents, as...)
		cli := r.client(tenant, "reporter")
		for _, i := range rng.Perm(n) {
			arrivals = append(arrivals, arrival{s.bugs[i], tenant, cli})
		}
	}
	due := evenSchedule(rate, len(arrivals))
	ph := newPhase(length)
	heap := startHeapSampler()
	start := time.Now()
	late := openLoop(start, due, nil, func(i int, at time.Time) {
		a := arrivals[i]
		opStolen := stolen()
		key := a.tenant + "/" + a.p.bug.Name
		root := tr.beginAt(at, "service.diagnosis", key, 0)
		_, v := r.diagnose(a.cli, a.tenant, a.p, tr, root.id(), key)
		ph.record(a.p.bug.Name, time.Since(at)-(stolen()-opStolen), v)
		root.end()
		if v == passed {
			ph.addQuality(a.p.bug, a.p.ref)
		}
	})
	ph.elapsed = time.Since(start)
	ph.heapMean = heap.finish()
	ph.late = late
	return ph, agents, nil
}

// campaignRef is one finished campaign the recurring load addresses.
type campaignRef struct {
	p      *prepared
	tenant string
	sig    string
	cli    *service.Client
}

// recurringRig diagnoses every bug once per tenant through a fresh
// service, then bounds the sketch cache to half of those sketches' bytes
// so cold signatures re-render from the checkpoint store.
func recurringRig(s *suite, tenants int) (*rig, []campaignRef, error) {
	var total int64
	for _, p := range s.bugs {
		total += int64(len(p.refJSON))
	}
	r := newRig(s, max(1, int64(tenants)*total/2))
	var refs []campaignRef
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("r%d", t)
		if _, err := r.startAgents(tenant); err != nil {
			r.close()
			return nil, nil, err
		}
		cli := r.client(tenant, "reader")
		for _, p := range s.bugs {
			refs = append(refs, campaignRef{p: p, tenant: tenant, cli: cli})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(refs))
	for i := range refs {
		wg.Add(1)
		go func(ref *campaignRef, errp *error) {
			defer wg.Done()
			sig, v := r.diagnose(ref.cli, ref.tenant, ref.p, nil, 0, "")
			if v != passed {
				*errp = fmt.Errorf("%s/%s: service diagnosis failed or differs from the reference", ref.tenant, ref.p.bug.Name)
			}
			ref.sig = sig
		}(&refs[i], &errs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, nil, err
		}
	}
	return r, refs, nil
}

// zipf draws indexes 0..n-1 with probability proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// recurringCallers is how many paced callers the recurring load runs.
const recurringCallers = 8

// recurringPhase is the service-recurring load: recurringCallers paced
// callers that together offer rate requests per second, each on its own
// seeded Poisson schedule. Half the requests are recurrence submits of
// known signatures and half sketch fetches, each aimed at a campaign
// drawn from a Zipf distribution (s = 1) over the campaigns in set-up
// order. The ranking is fixed so that every seed sees the same hot set,
// and so the same sketch-cache working set; the seed draws the requests.
// A caller never has more than one request outstanding, so a stall
// cannot build a backlog whose draining would swamp the microsecond costs
// this load measures. A request is timed by the CPU time it took on its
// caller's thread, which runs the client, the loopback transport and the
// server's handler alike. Its wall time, from send to reply, tracked
// hypervisor steal: over ten seeds the wall p90 read 0.70 ms at 1% steal
// and 1.01 ms at 23%, because a request of a few hundred microseconds
// that the hypervisor descheduled waited milliseconds for its core. The
// wire spans of the traced run keep the wall time.
func recurringPhase(r *rig, refs []campaignRef, rng *rand.Rand, length time.Duration, rate float64, tr *tracer) *phase {
	z := newZipf(len(refs), 1)
	type request struct {
		ref  *campaignRef
		fold bool
		seed int64
	}
	perCaller := int(length.Seconds() * rate / recurringCallers)
	due := make([][]time.Duration, recurringCallers)
	reqs := make([][]request, recurringCallers)
	for c := range due {
		due[c] = poissonSchedule(rng, rate/recurringCallers, perCaller)
		reqs[c] = make([]request, perCaller)
		for j := range reqs[c] {
			reqs[c][j] = request{ref: &refs[z.draw(rng)], fold: rng.Intn(2) == 0, seed: rng.Int63n(1 << 30)}
		}
	}
	ph := newPhase(length)
	heap := startHeapSampler()
	start := time.Now()
	late := pacedLoop(start, due, func(c, j int, sent time.Time) {
		q := reqs[c][j]
		kind := "fetch"
		if q.fold {
			kind = "fold"
		}
		key := fmt.Sprintf("caller%d/%d", c, j)
		root := tr.beginAt(sent, "service."+kind, key, 0)
		ctx := withSpan(r.ctx, root.id(), key)
		cpu0 := threadCPU()
		v := errored
		if q.fold {
			resp, err := submit(ctx, q.ref.cli, q.ref.tenant, q.ref.p, q.seed)
			if err == nil {
				v = wrong
				if resp.Duplicate && resp.Signature == q.ref.sig {
					v = passed
				}
			}
		} else if sketch, err := fetch(ctx, q.ref.cli, q.ref.tenant, q.ref.p, q.ref.sig); err == nil {
			v = q.ref.p.check(sketch)
		}
		ph.record(kind, threadCPU()-cpu0, v)
		root.end()
		if v == passed && !q.fold {
			ph.addQuality(q.ref.p.bug, q.ref.p.ref)
		}
	})
	ph.elapsed = time.Since(start)
	ph.heapMean = heap.finish()
	for _, l := range late {
		ph.late = append(ph.late, l...)
	}
	return ph
}

// serviceLayerMetrics derives the wire, agent, admission, ingest, store
// and load-generator metrics of a traced service phase.
func serviceLayerMetrics(out map[string]float64, r *rig, ph *phase, sum map[string]*layerStats, agents []*agentStats, before serverCounters, diagnoses int) {
	spanMs := func(name string, q float64) float64 {
		if ls := sum[name]; ls != nil {
			return quantile(ls.Durs, q) / 1000
		}
		return 0
	}
	out["wire.submit_ms_p50"] = spanMs("wire"+service.PathSubmit, 0.50)
	out["wire.sketch_ms_p50"] = spanMs("wire"+service.PathSketch, 0.50)
	out["wire.poll_ms_p50"] = spanMs("wire"+service.PathPoll, 0.50)
	out["wire.poll_ms_p99"] = spanMs("wire"+service.PathPoll, 0.99)
	out["wire.upload_ms_p50"] = spanMs("wire"+service.PathUpload, 0.50)
	w := &r.pr.wire
	w.mu.Lock()
	out["wire.requests"] = float64(w.requests)
	out["wire.retries"] = float64(w.failures)
	polls := 0
	if ls := sum["wire"+service.PathPoll]; ls != nil {
		polls = ls.Count
	}
	out["wire.polls_per_task"] = frac(float64(polls), float64(w.grants))
	out["wire.requests_per_diagnosis"] = frac(float64(w.requests), float64(diagnoses))
	out["wire.bytes_per_diagnosis"] = frac(float64(w.bytes), float64(diagnoses))
	out["agent.tasks"] = float64(w.grants)
	w.mu.Unlock()

	var busy, gaps []float64
	for _, a := range agents {
		a.mu.Lock()
		busy = append(busy, max(0, 1-a.pollTime.Seconds()/ph.elapsed.Seconds()))
		gaps = append(gaps, a.gaps...)
		a.mu.Unlock()
	}
	out["agent.busy_frac"] = mean(busy)
	out["agent.task_gap_ms_p50"] = quantile(gaps, 0.50)

	after := r.counters()
	out["admission.shed"] = float64(after.counters.ShedRateLimited + after.counters.ShedLaunches -
		before.counters.ShedRateLimited - before.counters.ShedLaunches)
	out["admission.max_queued"] = float64(r.srv.Health().MaxQueuedLaunches)
	out["ingest.novel"] = float64(after.ingest.Novel - before.ingest.Novel)
	out["ingest.folded"] = float64(after.ingest.Folded - before.ingest.Folded)
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	out["ingest.cache_hit_frac"] = frac(hits, hits+misses)
	out["ingest.sketch_reloads"] = float64(after.counters.SketchReloads - before.counters.SketchReloads)

	st := &r.pr.store
	st.mu.Lock()
	out["store.writes"] = float64(st.writes)
	out["store.write_us_p50"] = quantile(st.writeUs, 0.50)
	out["store.bytes_written"] = float64(st.bytesWritten)
	out["store.reads"] = float64(st.reads)
	out["store.read_us_p50"] = quantile(st.readUs, 0.50)
	st.mu.Unlock()

	out["loadgen.sent"] = float64(len(ph.late))
	lateMs := make([]float64, len(ph.late))
	for i, d := range ph.late {
		lateMs[i] = ms(d)
	}
	out["loadgen.late_ms_p99"] = quantile(lateMs, 0.99)
}

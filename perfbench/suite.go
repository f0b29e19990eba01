package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// digestsJSON holds the SHA-256 of every bug's -full sketch bytes, taken
// with the default configuration (see -print-digests).
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func sketchDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// prepared is one bug ready to diagnose: its configuration over a freshly
// compiled program, the failure report discovery found, and the local
// reference diagnosis every served sketch is compared with.
type prepared struct {
	bug     *bugs.Bug
	cfg     core.Config
	report  *vm.FailureReport
	disc    int
	ref     *core.Result
	refJSON []byte
	// digestOK records that refJSON matches the committed digest; a
	// sketch passes the gate only if it equals refJSON and this holds.
	digestOK bool
}

// check is the correctness gate for one sketch.
func (p *prepared) check(sketch []byte) verdict {
	if p.digestOK && bytes.Equal(sketch, p.refJSON) {
		return passed
	}
	return wrong
}

// suite is the result of one set-up pass, with the time each layer took.
type suite struct {
	bugs   []*prepared
	byName map[string]*prepared

	compile, graph, slice, discovery time.Duration
	discoveryRuns                    int
}

func (s *suite) configFor(bug string) (core.Config, error) {
	p := s.byName[bug]
	if p == nil {
		return core.Config{}, fmt.Errorf("unknown bug %q", bug)
	}
	return p.cfg, nil
}

// setupSuite compiles every bug afresh over a cold analysis cache, finds
// its failure and diagnoses it locally from that report.
func setupSuite(bs []*bugs.Bug, digests map[string]string) (*suite, error) {
	analysis.Reset()
	s := &suite{byName: map[string]*prepared{}}
	for _, b := range bs {
		t0 := time.Now()
		prog, err := ir.Compile(b.Name+".mc", b.Source)
		s.compile += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", b.Name, err)
		}
		cfg := b.GistConfig()
		cfg.Prog = prog

		t0 = time.Now()
		analysis.Graph(prog)
		s.graph += time.Since(t0)

		t0 = time.Now()
		report, disc, err := core.FirstFailure(cfg)
		s.discovery += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: discovery: %w", b.Name, err)
		}
		s.discoveryRuns += disc

		t0 = time.Now()
		analysis.Slice(prog, report.InstrID)
		for _, pc := range report.OtherPCs {
			analysis.Slice(prog, pc)
		}
		s.slice += time.Since(t0)

		ref, err := core.RunFromReport(cfg, report, disc)
		if err != nil {
			return nil, fmt.Errorf("%s: reference diagnosis: %w", b.Name, err)
		}
		refJSON, err := ref.Sketch.MarshalIndentJSON()
		if err != nil {
			return nil, fmt.Errorf("%s: reference sketch: %w", b.Name, err)
		}
		p := &prepared{
			bug: b, cfg: cfg, report: report, disc: disc, ref: ref, refJSON: refJSON,
			digestOK: sketchDigest(refJSON) == digests[b.Name],
		}
		s.bugs = append(s.bugs, p)
		s.byName[b.Name] = p
	}
	return s, nil
}

// quality accumulates the paper's diagnosis-quality figures per bug, so
// their means weigh every bug once however often it was diagnosed.
type quality struct {
	overhead, recurrences, accuracy map[string][]float64
}

func newQuality() *quality {
	return &quality{overhead: map[string][]float64{}, recurrences: map[string][]float64{}, accuracy: map[string][]float64{}}
}

func (q *quality) add(b *bugs.Bug, res *core.Result) {
	_, _, overall := res.Sketch.Accuracy(b.Ideal())
	q.overhead[b.Name] = append(q.overhead[b.Name], res.AvgOverheadPct)
	q.recurrences[b.Name] = append(q.recurrences[b.Name], float64(res.FailureRecurrences))
	q.accuracy[b.Name] = append(q.accuracy[b.Name], overall)
}

func meanOfMeans(m map[string][]float64) float64 {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var per []float64
	for _, name := range names {
		per = append(per, mean(m[name]))
	}
	return mean(per)
}

func (q *quality) metrics(out map[string]float64) {
	out["endpoint_overhead_pct"] = meanOfMeans(q.overhead)
	out["recurrences_per_diagnosis"] = meanOfMeans(q.recurrences)
	out["accuracy_pct"] = meanOfMeans(q.accuracy)
}

// Package loadgen is the scenario-driven load harness for the genasm
// serving layer: a stdlib-only HTTP client that generates deterministic,
// seeded request workloads against a running server (cmd/genasm-serve or
// an httptest.Server over server.Handler), paces them open-loop at a
// target rate under a bounded in-flight cap, and reports per-scenario
// throughput, error/backpressure counts and client-side latency
// percentiles — the serving-side evidence microbenchmarks cannot give.
//
// Five named scenarios model the traffic shapes the server was built
// for:
//
//   - baseline: low-rate interactive /align singles — the latency floor.
//   - mixed:    /align plus /map-align in all three response formats
//     (json, sam, paf) plus repeated-key traffic that must be served
//     from the result cache bit-identically.
//   - stress:   max-rate tiny alignments — exercises scheduler
//     coalescing and bounded-queue 429 backpressure.
//   - churn:    references uploaded and deleted while /map-align
//     traffic runs against them — registry lifecycle under load.
//   - bulk:     /jobs submissions riding alongside interactive traffic
//     — the two-lane contention shape (requires -jobs-dir).
//
// Every scenario's request sequence is derived deterministically from
// its seed (internal/readsim drives the read generation), so two runs
// with the same seed offer the exact same byte-for-byte request stream
// and results are comparable across runs. Results feed the SLO
// regression gate (see slo.go and cmd/genasm-loadgen).
package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"

	"genasm"
	"genasm/internal/readsim"
	"genasm/server"
)

// Scenario names, in canonical order.
const (
	ScenarioBaseline = "baseline"
	ScenarioMixed    = "mixed"
	ScenarioStress   = "stress"
	ScenarioChurn    = "churn"
	ScenarioBulk     = "bulk"
)

// Scenarios returns every named scenario in canonical run order.
func Scenarios() []string {
	return []string{ScenarioBaseline, ScenarioMixed, ScenarioStress, ScenarioChurn, ScenarioBulk}
}

// Request is one fully materialized HTTP request of a scenario plan:
// method, path (query string included) and a pre-marshaled body. Plans
// are built once per run and cycled, so requests are immutable.
type Request struct {
	// Op labels the request kind for reporting (align, map-align-sam,
	// cache-hit, ref-add, job-submit, ...).
	Op string
	// Method and Path address the server; Path includes any query string.
	Method string
	Path   string
	// Body is the request payload (JSON for the API endpoints, raw FASTQ
	// for job submissions); nil for body-less requests.
	Body []byte
	// ContentType is the request Content-Type (empty = application/json).
	ContentType string
	// CacheKey groups requests whose 200 responses must be bit-identical
	// to each other: the plan repeats the same body under one key, so
	// after the warmup phase primes the result cache every response is a
	// cache hit and any byte difference is a torn or stale cache entry.
	// Zero means unchecked.
	CacheKey int
	// Expect lists the HTTP statuses this request may legitimately
	// receive. 429 is always tolerated (counted as backpressure, never as
	// an error) and need not be listed.
	Expect []int
}

// Plan is a scenario's deterministic workload: the reference to upload
// and the request cycle to pace through.
type Plan struct {
	Scenario string
	Seed     int64
	// RefName/RefSeq is the main reference the plan's map-align and job
	// traffic targets; Run uploads it before pacing starts.
	RefName string
	RefSeq  []byte
	// Requests is the cycle: the pacer walks it round-robin, so the
	// offered sequence is deterministic for a given (scenario, seed).
	Requests []Request
	// Rate is the scenario's default offered request rate per second;
	// Concurrency its default in-flight cap. Config overrides both.
	Rate        float64
	Concurrency int
}

// expectOK is the common single-status allowance.
var expectOK = []int{200}

// BuildPlan materializes the named scenario's request cycle from the
// seed. The same (scenario, seed, genomeLen) always yields the same
// plan, byte for byte — pinned by TestPlanDeterministic.
func BuildPlan(cfg Config) (*Plan, error) {
	cfg.fillDefaults()
	refSeq := genasm.GenerateGenome(cfg.GenomeLen, cfg.Seed)
	p := &Plan{
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		RefName:  cfg.RefName,
		RefSeq:   refSeq,
	}
	var err error
	switch cfg.Scenario {
	case ScenarioBaseline:
		err = buildBaseline(p)
	case ScenarioMixed:
		err = buildMixed(p)
	case ScenarioStress:
		err = buildStress(p)
	case ScenarioChurn:
		err = buildChurn(p)
	case ScenarioBulk:
		err = buildBulk(p)
	default:
		return nil, fmt.Errorf("loadgen: unknown scenario %q (want %s)",
			cfg.Scenario, strings.Join(Scenarios(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("loadgen: building %s plan: %w", cfg.Scenario, err)
	}
	return p, nil
}

// simulatePairs draws n reads from ref under profile and returns them as
// (query, reference-region) align pairs using the simulator's ground
// truth. RevComp is disabled so the query actually aligns to its region.
func simulatePairs(ref []byte, n int, prof readsim.Profile, seed int64) ([]server.AlignPair, error) {
	prof.RevCompFrac = 0
	reads, err := readsim.Simulate(ref, n, prof, seed)
	if err != nil {
		return nil, err
	}
	pairs := make([]server.AlignPair, len(reads))
	for i, r := range reads {
		pairs[i] = server.AlignPair{
			Query: string(r.Seq),
			Ref:   string(ref[r.Pos : r.Pos+r.RefSpan]),
		}
	}
	return pairs, nil
}

// simulateReads draws n mapping reads (both strands) from ref.
func simulateReads(ref []byte, n int, prof readsim.Profile, seed int64) ([]server.ReadIn, error) {
	reads, err := readsim.Simulate(ref, n, prof, seed)
	if err != nil {
		return nil, err
	}
	out := make([]server.ReadIn, len(reads))
	for i, r := range reads {
		out[i] = server.ReadIn{Name: r.Name, Seq: string(r.Seq), Qual: string(r.Qual)}
	}
	return out, nil
}

// interactiveProfile is the medium interactive read shape: ~600 bp at 8%
// error, long-read-like composition.
func interactiveProfile() readsim.Profile {
	p := readsim.PacBioCLR()
	p.MeanLength, p.LengthSD, p.MinLength = 600, 120, 120
	p.ErrorRate, p.ErrorRateSD = 0.08, 0.01
	return p
}

// tinyProfile is the stress shape: reads small enough that per-request
// cost is dominated by serving overhead, not alignment.
func tinyProfile() readsim.Profile {
	p := readsim.PacBioCLR()
	p.MeanLength, p.LengthSD, p.MinLength = 80, 12, 48
	p.ErrorRate, p.ErrorRateSD = 0.05, 0.01
	return p
}

func alignRequest(op string, cacheKey int, pairs ...server.AlignPair) Request {
	body, err := json.Marshal(server.AlignRequest{Pairs: pairs})
	if err != nil {
		panic(err) // static wire types; cannot fail
	}
	return Request{
		Op: op, Method: "POST", Path: "/align", Body: body,
		CacheKey: cacheKey, Expect: expectOK,
	}
}

func mapAlignRequest(op, ref, format string, expect []int, reads ...server.ReadIn) Request {
	body, err := json.Marshal(server.MapAlignRequest{Ref: ref, Reads: reads, Format: format})
	if err != nil {
		panic(err)
	}
	return Request{Op: op, Method: "POST", Path: "/map-align", Body: body, Expect: expect}
}

// buildBaseline: low-rate interactive /align singles.
func buildBaseline(p *Plan) error {
	pairs, err := simulatePairs(p.RefSeq, 64, interactiveProfile(), p.Seed)
	if err != nil {
		return err
	}
	for _, pair := range pairs {
		p.Requests = append(p.Requests, alignRequest("align", 0, pair))
	}
	p.Rate, p.Concurrency = 25, 16
	return nil
}

// buildMixed: align + /map-align in all three formats + repeated-key
// cache-hit traffic. The repeated keys are interleaved through the cycle
// so hits and misses coexist in the same scheduler batches.
func buildMixed(p *Plan) error {
	pairs, err := simulatePairs(p.RefSeq, 24, interactiveProfile(), p.Seed)
	if err != nil {
		return err
	}
	reads, err := simulateReads(p.RefSeq, 36, interactiveProfile(), p.Seed+1)
	if err != nil {
		return err
	}
	hotPairs, err := simulatePairs(p.RefSeq, 6, interactiveProfile(), p.Seed+2)
	if err != nil {
		return err
	}
	var cold, hot []Request
	for _, pair := range pairs {
		cold = append(cold, alignRequest("align", 0, pair))
	}
	for i, format := range []string{"json", "sam", "paf"} {
		for j := 0; j < 12; j++ {
			chunk := reads[(i*12+j)%len(reads):]
			if len(chunk) > 4 {
				chunk = chunk[:4]
			}
			cold = append(cold, mapAlignRequest("map-align-"+format, p.RefName, format, expectOK, chunk...))
		}
	}
	// Each hot pair repeats 6 times under one cache key: after warmup the
	// response must come from the cache, bit-identical every time.
	for rep := 0; rep < 6; rep++ {
		for k, pair := range hotPairs {
			hot = append(hot, alignRequest("cache-hit", k+1, pair))
		}
	}
	p.Requests = interleave(cold, hot)
	p.Rate, p.Concurrency = 120, 32
	return nil
}

// buildStress: max-rate tiny single-pair alignments.
func buildStress(p *Plan) error {
	pairs, err := simulatePairs(p.RefSeq, 48, tinyProfile(), p.Seed)
	if err != nil {
		return err
	}
	for _, pair := range pairs {
		p.Requests = append(p.Requests, alignRequest("align-tiny", 0, pair))
	}
	p.Rate, p.Concurrency = 2500, 64
	return nil
}

// buildChurn: secondary references uploaded and deleted mid-traffic
// while /map-align runs against both the churning names and the stable
// main reference. Because adds, deletes and lookups race by design, the
// churned endpoints tolerate 404 (deleted), 409 (re-added) and 410 —
// anything else (especially a 500) is an error.
func buildChurn(p *Plan) error {
	reads, err := simulateReads(p.RefSeq, 16, interactiveProfile(), p.Seed)
	if err != nil {
		return err
	}
	const churnRefs = 4
	for i := 0; i < churnRefs; i++ {
		name := fmt.Sprintf("churn-%d", i)
		seq := genasm.GenerateGenome(4_000, p.Seed+int64(i)+100)
		addBody, err := json.Marshal(server.RefAddRequest{Name: name, Sequence: string(seq)})
		if err != nil {
			return err
		}
		churnReads, err := simulateReads(seq, 4, interactiveProfile(), p.Seed+int64(i)+200)
		if err != nil {
			return err
		}
		p.Requests = append(p.Requests,
			Request{Op: "ref-add", Method: "POST", Path: "/refs", Body: addBody, Expect: []int{201, 409}},
			mapAlignRequest("map-align-churn", name, "json", []int{200, 404}, churnReads...),
			mapAlignRequest("map-align-stable", p.RefName, "json", expectOK, reads[i*4:i*4+4]...),
			mapAlignRequest("map-align-churn", name, "sam", []int{200, 404}, churnReads...),
			Request{Op: "ref-delete", Method: "DELETE", Path: "/refs/" + name, Expect: []int{204, 404}},
			mapAlignRequest("map-align-churn", name, "json", []int{200, 404}, churnReads...),
		)
	}
	p.Rate, p.Concurrency = 80, 16
	return nil
}

// buildBulk: /jobs submissions riding alongside interactive /align
// traffic — every 8th request spools a 24-read FASTQ job.
func buildBulk(p *Plan) error {
	pairs, err := simulatePairs(p.RefSeq, 28, interactiveProfile(), p.Seed)
	if err != nil {
		return err
	}
	prof := interactiveProfile()
	var jobBodies [][]byte
	for i := 0; i < 4; i++ {
		reads, err := readsim.Simulate(p.RefSeq, 24, prof, p.Seed+int64(i)+300)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := readsim.WriteFASTQ(&sb, reads); err != nil {
			return err
		}
		jobBodies = append(jobBodies, []byte(sb.String()))
	}
	for i, pair := range pairs {
		if i%7 == 0 {
			p.Requests = append(p.Requests, Request{
				Op:     "job-submit",
				Method: "POST",
				Path:   "/jobs?ref=" + p.RefName + "&format=sam",
				Body:   jobBodies[(i/7)%len(jobBodies)],
				// FASTQ, not JSON; the handler sniffs the first byte.
				ContentType: "text/plain",
				Expect:      []int{202},
			})
		}
		p.Requests = append(p.Requests, alignRequest("align", 0, pair))
	}
	p.Rate, p.Concurrency = 60, 16
	return nil
}

// interleave spreads b's entries evenly through a, preserving both
// orders — deterministic, no randomness.
func interleave(a, b []Request) []Request {
	if len(b) == 0 {
		return a
	}
	out := make([]Request, 0, len(a)+len(b))
	stride := 1
	if len(b) > 0 {
		stride = (len(a) + len(b)) / len(b)
		if stride < 1 {
			stride = 1
		}
	}
	ai, bi := 0, 0
	for len(out) < len(a)+len(b) {
		if (len(out)%stride == stride-1 || ai == len(a)) && bi < len(b) {
			out = append(out, b[bi])
			bi++
		} else {
			out = append(out, a[ai])
			ai++
		}
	}
	return out
}

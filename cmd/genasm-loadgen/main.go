// Command genasm-loadgen drives a running genasm-serve with named,
// deterministic load scenarios and gates on latency/error SLOs (see
// internal/loadgen for the scenario catalogue).
//
// Examples:
//
//	# all five scenarios, 10s measured each, human-readable summary
//	genasm-loadgen -url http://localhost:8080 -scenarios all -duration 10s
//
//	# CI regression gate: ceilings from slo.json
//	genasm-loadgen -url http://localhost:8080 -scenarios all \
//	    -duration 5s -slo slo.json
//
// Exit status: 0 when every scenario ran and every SLO ceiling held,
// 1 when an SLO ceiling was violated, 2 on any other failure. The bulk
// scenario needs the server started with -jobs-dir.
//
// See docs/OPERATIONS.md ("Load testing and SLOs") for the workflow.
// Performance numbers come from the benchmark/ harness, not from here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genasm/internal/loadgen"
)

// errSLOViolated distinguishes a failed gate (exit 1) from an
// operational failure (exit 2).
var errSLOViolated = errors.New("SLO violated")

// options collects every flag so the whole CLI path is testable.
type options struct {
	url       string
	scenarios string // comma-separated names or "all"
	seed      int64
	warmup    time.Duration
	duration  time.Duration
	rate      float64
	conc      int
	genomeLen int
	refName   string
	sloPath   string
}

func defaultOptions() options {
	return options{
		url:       "http://127.0.0.1:8080",
		scenarios: "all",
		seed:      7,
		warmup:    time.Second,
		duration:  5 * time.Second,
		genomeLen: 120_000,
		refName:   "loadgen",
	}
}

// scenarioList resolves the -scenarios flag into plan names.
func scenarioList(v string) ([]string, error) {
	if v == "" || v == "all" {
		return loadgen.Scenarios(), nil
	}
	var out []string
	for _, name := range strings.Split(v, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, s := range loadgen.Scenarios() {
			if s == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown scenario %q (want all or a comma list of %s)",
				name, strings.Join(loadgen.Scenarios(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scenarios resolved to an empty list")
	}
	return out, nil
}

// run executes the selected scenarios sequentially, prints a summary
// per scenario, and checks SLOs.
func run(ctx context.Context, o options, out io.Writer) error {
	names, err := scenarioList(o.scenarios)
	if err != nil {
		return err
	}
	var slo loadgen.SLOFile
	haveSLO := o.sloPath != ""
	if haveSLO {
		if slo, err = loadgen.LoadSLO(o.sloPath); err != nil {
			return err
		}
	}

	var results []*loadgen.Result
	for _, name := range names {
		fmt.Fprintf(out, "=== %s: warmup %s, measure %s against %s\n", name, o.warmup, o.duration, o.url)
		res, err := loadgen.Run(ctx, loadgen.Config{
			BaseURL:     o.url,
			Scenario:    name,
			Seed:        o.seed,
			Warmup:      o.warmup,
			Duration:    o.duration,
			Rate:        o.rate,
			Concurrency: o.conc,
			GenomeLen:   o.genomeLen,
			RefName:     o.refName,
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		printResult(out, res)
		results = append(results, res)
	}

	if haveSLO {
		violations := slo.Check(results)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(out, "SLO VIOLATION: %s\n", v)
			}
			return fmt.Errorf("%d scenario ceiling(s) broken: %w", len(violations), errSLOViolated)
		}
		fmt.Fprintf(out, "SLO: all ceilings held (%d scenario(s) gated)\n", len(slo.Scenarios))
	}
	return nil
}

func printResult(out io.Writer, r *loadgen.Result) {
	fmt.Fprintf(out, "%-9s rps %7.1f/%7.1f  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  req %6d  err %4d  429 %4d  shed %4d\n",
		r.Scenario, r.AchievedRPS, r.OfferedRPS, r.P50ms, r.P95ms, r.P99ms,
		r.Requests, r.Errors, r.Status429, r.Dropped)
	if r.CacheChecked > 0 {
		fmt.Fprintf(out, "          cache-hit identity: %d checked, %d mismatched\n", r.CacheChecked, r.CacheMismatches)
	}
	if d := r.ServerDelta; d != nil {
		fmt.Fprintf(out, "          server: %d requests, %d pairs done, %d rejected, %d cache hits, %d batches (mean %.1f pairs)\n",
			d.RequestsTotal, d.PairsDoneTotal, d.RejectedTotal, d.CacheHitsTotal, d.BatchSizePairs.Count, d.BatchSizeMean())
	}
	if r.LastError != "" {
		fmt.Fprintf(out, "          last error: %s\n", r.LastError)
	}
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.url, "url", o.url, "base URL of the genasm-serve instance under test")
	flag.StringVar(&o.scenarios, "scenarios", o.scenarios,
		"comma-separated scenario names, or all ("+strings.Join(loadgen.Scenarios(), ", ")+")")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed; the same seed offers the identical request sequence")
	flag.DurationVar(&o.warmup, "warmup", o.warmup, "unmeasured warmup phase per scenario (primes caches and connections)")
	flag.DurationVar(&o.duration, "duration", o.duration, "measured phase per scenario")
	flag.Float64Var(&o.rate, "rate", 0, "offered requests/second, open-loop (0 = scenario default)")
	flag.IntVar(&o.conc, "concurrency", 0, "max in-flight requests; beyond it requests are shed client-side (0 = scenario default)")
	flag.IntVar(&o.genomeLen, "genome", o.genomeLen, "synthetic reference length the workload is drawn from")
	flag.StringVar(&o.refName, "ref-name", o.refName, "name the workload reference is uploaded under")
	flag.StringVar(&o.sloPath, "slo", "", "SLO file with per-scenario ceilings; any violation exits 1")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genasm-loadgen:", err)
		if errors.Is(err, errSLOViolated) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

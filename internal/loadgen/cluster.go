package loadgen

import (
	"context"
	"fmt"
	"sync"
)

// RunTargets runs one scenario against several base URLs concurrently —
// the node-count scaling probe for a serving cluster. Each target gets
// its own deterministic plan (same seed, so every node sees the same
// workload) and its own open-loop pacer; the aggregate result sums
// throughput and counts across targets. Latency percentiles cannot be
// summed, so the aggregate reports the worst (maximum) per-target
// percentile — a conservative cluster-wide bound.
//
// Targets may be genasm-serve nodes hit directly (per-node capacity) or
// a single routing front listed once (front-tier capacity); the
// aggregate is meaningful either way.
func RunTargets(ctx context.Context, cfg Config, targets []string) (perTarget []*Result, aggregate *Result, err error) {
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("loadgen: RunTargets needs at least one target")
	}
	perTarget = make([]*Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			tcfg := cfg
			tcfg.BaseURL = target
			res, rerr := Run(ctx, tcfg)
			if rerr != nil {
				errs[i] = fmt.Errorf("loadgen: target %s: %w", target, rerr)
				return
			}
			res.Target = target
			perTarget[i] = res
		}(i, target)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return perTarget, Aggregate(perTarget), nil
}

// Aggregate folds per-target results into one cluster-wide view:
// throughput and counts sum, percentiles take the per-target maximum
// (see RunTargets). Returns nil for no results.
func Aggregate(results []*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	agg := &Result{
		Scenario:     results[0].Scenario,
		Seed:         results[0].Seed,
		Target:       "aggregate",
		StatusCounts: make(map[int]int),
	}
	for _, r := range results {
		agg.OfferedRPS += r.OfferedRPS
		agg.AchievedRPS += r.AchievedRPS
		agg.Requests += r.Requests
		agg.Errors += r.Errors
		agg.Status429 += r.Status429
		agg.Dropped += r.Dropped
		agg.CacheMismatches += r.CacheMismatches
		agg.CacheChecked += r.CacheChecked
		agg.P50ms = max(agg.P50ms, r.P50ms)
		agg.P95ms = max(agg.P95ms, r.P95ms)
		agg.P99ms = max(agg.P99ms, r.P99ms)
		agg.MeasureSeconds = max(agg.MeasureSeconds, r.MeasureSeconds)
		for code, n := range r.StatusCounts {
			agg.StatusCounts[code] += n
		}
		if r.LastError != "" {
			agg.LastError = r.LastError
		}
	}
	return agg
}

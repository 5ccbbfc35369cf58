package loadgen

import (
	"context"
	"os"
	"testing"
	"time"

	"genasm/server"
)

// clusterNodes boots n in-process genasm-serve nodes and returns their
// base URLs.
func clusterNodes(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = smokeServer(t, server.Config{}).URL
	}
	return urls
}

// TestRunTargetsAggregate: the multi-target runner measures every node
// and the aggregate sums their throughput and counts.
func TestRunTargetsAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	targets := clusterNodes(t, 2)
	per, agg, err := RunTargets(context.Background(), Config{
		Scenario:  ScenarioBaseline,
		Seed:      7,
		Warmup:    300 * time.Millisecond,
		Duration:  time.Second,
		GenomeLen: 40_000,
	}, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("%d per-target results, want 2", len(per))
	}
	var sumRPS float64
	var sumReq int
	for i, r := range per {
		if r.Target != targets[i] {
			t.Fatalf("result %d carries target %q, want %q", i, r.Target, targets[i])
		}
		if r.Requests == 0 {
			t.Fatalf("target %s measured no requests", r.Target)
		}
		if r.Errors != 0 {
			t.Fatalf("target %s saw %d errors (last: %s)", r.Target, r.Errors, r.LastError)
		}
		sumRPS += r.AchievedRPS
		sumReq += r.Requests
	}
	if agg.Target != "aggregate" || agg.Requests != sumReq {
		t.Fatalf("aggregate %+v does not sum per-target requests %d", agg, sumReq)
	}
	if diff := agg.AchievedRPS - sumRPS; diff > 0.001 || diff < -0.001 {
		t.Fatalf("aggregate RPS %.3f != per-target sum %.3f", agg.AchievedRPS, sumRPS)
	}
	if agg.P99ms < per[0].P99ms && agg.P99ms < per[1].P99ms {
		t.Fatal("aggregate p99 must be the per-target maximum")
	}
}

func TestRunTargetsValidation(t *testing.T) {
	if _, _, err := RunTargets(context.Background(), Config{Scenario: ScenarioBaseline}, nil); err == nil {
		t.Fatal("no targets did not error")
	}
	if agg := Aggregate(nil); agg != nil {
		t.Fatalf("Aggregate(nil) = %+v, want nil", agg)
	}
}

// TestClusterBench is the node-count scaling check: the mixed scenario
// offered to 1 and then 3 upstream nodes, with the aggregate throughput
// required to increase. Opt-in (set GENASM_CLUSTER_BENCH to any
// non-empty value) because the measured phases take tens of seconds.
func TestClusterBench(t *testing.T) {
	if os.Getenv("GENASM_CLUSTER_BENCH") == "" {
		t.Skip("set GENASM_CLUSTER_BENCH=1 to run the cluster scaling bench")
	}
	urls := clusterNodes(t, 3)
	cfg := Config{
		Scenario:  ScenarioMixed,
		Seed:      7,
		Warmup:    time.Second,
		Duration:  8 * time.Second,
		GenomeLen: 80_000,
	}
	var aggs []*Result
	for _, nodes := range []int{1, 3} {
		per, agg, err := RunTargets(context.Background(), cfg, urls[:nodes])
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, agg)
		for _, r := range per {
			t.Logf("nodes=%d %s %.1f rps (p99 %.2fms)", nodes, r.Target, r.AchievedRPS, r.P99ms)
		}
		t.Logf("nodes=%d aggregate %.1f rps (p99 %.2fms)", nodes, agg.AchievedRPS, agg.P99ms)
	}
	if aggs[1].AchievedRPS <= aggs[0].AchievedRPS {
		t.Fatalf("3-node aggregate %.1f rps did not exceed 1-node %.1f rps",
			aggs[1].AchievedRPS, aggs[0].AchievedRPS)
	}
}

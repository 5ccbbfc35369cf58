// Command genasm-bench is the repository benchmark. One invocation runs
// one workload for a fixed measuring time, checks every output it
// produced, and prints a report line followed by a result line:
//
//	genasm-bench --workload longread_p --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with the benchmark's own instrumentation off. With --trace 1 it
// carries the per-layer ledger instead: the workload's inputs are
// replayed through each layer's public functions and timed from
// outside. The program under test is never modified or instrumented
// from within. Any correctness violation makes the run exit 1.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

//go:embed predictions.json
var predictionsJSON []byte

// nproc is the load generator's and the engine's worker count.
var nproc = runtime.NumCPU()

// runDeadline keeps a run inside the 180 s every invocation must meet.
const runDeadline = 170 * time.Second

// measured is one metric value with its unit and the number of samples
// it was computed from.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// runResult is what a workload returns: operation counts, metrics and
// the workload properties later claims cite.
type runResult struct {
	attempted, failed int
	metrics           map[string]measured
	props             map[string]any
	violations        []string
}

func (r *runResult) set(name string, v float64, n int) {
	if r.metrics == nil {
		r.metrics = make(map[string]measured)
	}
	r.metrics[name] = measured{Value: v, Unit: metricUnits[name], Samples: n}
}

func (r *runResult) prop(name string, v any) {
	if r.props == nil {
		r.props = make(map[string]any)
	}
	r.props[name] = v
}

type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
}

// workloads maps each workload name to its run function; BENCHMARK.json
// records why each was chosen.
var workloads = map[string]func(ctx context.Context, rc runConfig) (*runResult, error){
	"longread_p":        func(ctx context.Context, rc runConfig) (*runResult, error) { return runLibrary(ctx, rc, longreadP) },
	"shortread_map":     func(ctx context.Context, rc runConfig) (*runResult, error) { return runLibrary(ctx, rc, shortreadMap) },
	"interactive_serve": runServe,
}

// End-to-end metrics (--trace 0) and per-layer metrics (--trace 1),
// with units. BENCHMARK.json lists the same names.
var e2eMetrics = []string{
	"setup_s", "mbases_per_s", "correct_frac", "distance_per_base", "ok_frac",
	"p50_ms.lo", "p50_ms.mid", "p50_ms.hi", "max_rps", "peak_rss_mb",
}

var layerMetrics = []string{
	"minimap.ns_per_read", "minimap.share", "minimap.candidates_per_read", "minimap.index_s",
	"core.ns_per_window", "core.windows_per_pair", "core.rows_skipped_frac",
	"core.dp_write_bytes_per_window", "core.dp_read_bytes_per_window",
	"core.peak_footprint_bits", "core.rank0_window_frac", "core.share",
	"dna.encode_ns_per_pair", "cigar.render_ns_per_aln",
	"engine.backend_overhead_frac", "engine.pipeline_overhead_frac", "engine.scaling_eff",
	"server.handler_ms.p50", "server.handler_ms.p99",
	"server.queue_wait_ms.p50", "server.queue_wait_ms.p99",
	"server.backend_exec_ms.p50", "server.backend_exec_ms.p99",
	"backend.busy_frac", "server.batch_size_mean", "server.cache_hit_frac",
	"server.serialize_ms.p50", "server.rejected_frac",
	"http.client_overhead_ms.p50", "loadgen.late_ms.p99",
	"ledger.residual_frac", "trace.overhead_frac",
}

var metricUnits = map[string]string{
	"setup_s": "s", "mbases_per_s": "Mbp/s", "correct_frac": "frac", "distance_per_base": "edits/base",
	"ok_frac": "frac", "p50_ms.lo": "ms", "p50_ms.mid": "ms", "p50_ms.hi": "ms",
	"max_rps": "1/s", "peak_rss_mb": "MiB",

	"minimap.ns_per_read": "ns", "minimap.share": "frac", "minimap.candidates_per_read": "count",
	"minimap.index_s": "s", "core.ns_per_window": "ns", "core.windows_per_pair": "count",
	"core.rows_skipped_frac": "frac", "core.dp_write_bytes_per_window": "B",
	"core.dp_read_bytes_per_window": "B", "core.peak_footprint_bits": "bit",
	"core.rank0_window_frac": "frac", "core.share": "frac", "dna.encode_ns_per_pair": "ns",
	"cigar.render_ns_per_aln": "ns", "engine.backend_overhead_frac": "frac",
	"engine.pipeline_overhead_frac": "frac", "engine.scaling_eff": "frac",
	"server.handler_ms.p50": "ms", "server.handler_ms.p99": "ms",
	"server.queue_wait_ms.p50": "ms", "server.queue_wait_ms.p99": "ms",
	"server.backend_exec_ms.p50": "ms", "server.backend_exec_ms.p99": "ms",
	"backend.busy_frac": "frac", "server.batch_size_mean": "pairs", "server.cache_hit_frac": "frac",
	"server.serialize_ms.p50": "ms", "server.rejected_frac": "frac",
	"http.client_overhead_ms.p50": "ms", "loadgen.late_ms.p99": "ms",
	"ledger.residual_frac": "frac", "trace.overhead_frac": "frac",
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: genasm-bench --workload %v --seed N --seconds N --trace 0|1\n", names)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rc := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := w(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %s: %v\n", *name, err)
		return 1
	}
	want := e2eMetrics
	if rc.trace {
		want = layerMetrics
	}
	if err := emit(*name, rc, res, want); err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %s: %v\n", *name, err)
		return 1
	}
	if len(res.violations) > 0 {
		for _, v := range res.violations {
			fmt.Fprintf(os.Stderr, "genasm-bench: correctness: %s\n", v)
		}
		return 1
	}
	return 0
}

// emit prints the report line (environment, workload properties and
// every metric with its sample count) and then the result line.
func emit(name string, rc runConfig, res *runResult, want []string) error {
	out := make(map[string]resultMetric, len(want))
	for _, m := range want {
		v, ok := res.metrics[m]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v from %d samples)", m, v.Value, v.Samples)
		}
		out[m] = resultMetric{Value: v.Value, Unit: v.Unit}
	}
	report := map[string]any{
		"workload":   name,
		"trace":      rc.trace,
		"seconds":    rc.measure.Seconds(),
		"env":        readEnv(rc.seed),
		"properties": res.props,
		"metrics":    res.metrics,
		"violations": res.violations,
	}
	if rc.trace {
		var preds any
		if err := json.Unmarshal(predictionsJSON, &preds); err != nil {
			return fmt.Errorf("predictions.json: %w", err)
		}
		report["predictions"] = preds
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	return enc.Encode(resultLine{
		Correct:   len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   out,
	})
}

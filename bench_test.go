// Benchmark harness: one target per table/figure in the paper's evaluation
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
// discussion).
//
//	BenchmarkE1MemoryFootprint   paper: 24x smaller DP footprint
//	BenchmarkE2MemoryAccesses    paper: 12x fewer DP accesses
//	BenchmarkE3CPUAligners       paper: improved GenASM 15.2x vs KSW2, 1.7x vs Edlib, 1.9x vs unimproved
//	BenchmarkE4GPU               paper: improved GPU 4.1x vs own CPU, 5.9x vs unimproved GPU
//	BenchmarkA1Ablation          per-improvement contribution
//	BenchmarkA2WindowSweep       window geometry sensitivity
//	BenchmarkA3ShortReads        short-read configuration
//
// Custom metrics (footprint-bits, accesses, gpu-pairs/s, ...) carry the
// paper's non-time numbers; ns/op carries the speed comparisons. Run with:
//
//	go test -bench=. -benchmem
package genasm_test

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/edlib"
	"genasm/internal/eval"
	"genasm/internal/gpu"
	"genasm/internal/gpualign"
	"genasm/internal/ksw2"
	"genasm/internal/loadgen"
	"genasm/internal/stats"
	"genasm/server"
	"genasm/server/jobs"
)

var (
	workloadOnce sync.Once
	benchW       *eval.Workload
)

// benchWorkload builds one shared moderate workload: 1 Mb genome, 40 reads
// of ~5 kb at 10% error (the paper's pipeline, scaled to bench runtime).
func benchWorkload(b testing.TB) *eval.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		w, err := eval.BuildWorkload(eval.WorkloadConfig{
			GenomeLen: 1_000_000, Reads: 40, ReadLen: 5_000, ErrorRate: 0.10, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchW = w
	})
	if benchW == nil {
		b.Fatal("workload failed")
	}
	return benchW
}

func alignAllImproved(b *testing.B, w *eval.Workload, cfg core.Config, c *stats.Counters) {
	a, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a.SetCounters(c)
	for _, p := range w.Pairs {
		if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

func alignAllUnimproved(b *testing.B, w *eval.Workload, c *stats.Counters) {
	a, err := baseline.New(baseline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	a.SetCounters(c)
	for _, p := range w.Pairs {
		if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1MemoryFootprint reports the per-window DP footprint (bits) of
// both GenASM variants and their ratio (paper: 24x).
func BenchmarkE1MemoryFootprint(b *testing.B) {
	w := benchWorkload(b)
	var imp, unimp stats.Counters
	for i := 0; i < b.N; i++ {
		imp.Reset()
		unimp.Reset()
		alignAllImproved(b, w, core.DefaultConfig(), &imp)
		alignAllUnimproved(b, w, &unimp)
	}
	b.ReportMetric(imp.MeanWindowFootprintBits(), "improved-footprint-bits")
	b.ReportMetric(unimp.MeanWindowFootprintBits(), "unimproved-footprint-bits")
	b.ReportMetric(unimp.MeanWindowFootprintBits()/imp.MeanWindowFootprintBits(), "footprint-reduction-x")
}

// BenchmarkE2MemoryAccesses reports DP-table word accesses and their ratio
// (paper: 12x).
func BenchmarkE2MemoryAccesses(b *testing.B) {
	w := benchWorkload(b)
	var imp, unimp stats.Counters
	for i := 0; i < b.N; i++ {
		imp.Reset()
		unimp.Reset()
		alignAllImproved(b, w, core.DefaultConfig(), &imp)
		alignAllUnimproved(b, w, &unimp)
	}
	b.ReportMetric(float64(imp.Accesses()), "improved-accesses")
	b.ReportMetric(float64(unimp.Accesses()), "unimproved-accesses")
	b.ReportMetric(float64(unimp.Accesses())/float64(imp.Accesses()), "access-reduction-x")
}

// benchBackends are the registered backend names the engine benchmarks
// sweep: both leaves plus the sharding composite, all through the public
// registry API.
var benchBackends = []string{"cpu", "gpu", "multi(cpu,gpu)"}

// BenchmarkEngineAlignBatch times the public Engine API on every
// built-in backend over the shared workload — the end-to-end path
// production callers hit (pooled aligners, context checks, encode
// included; for multi, the capability-weighted shard split).
func BenchmarkEngineAlignBatch(b *testing.B) {
	w := benchWorkload(b)
	pairs := w.PublicPairs()
	for _, name := range benchBackends {
		b.Run(name, func(b *testing.B) {
			eng, err := genasm.NewEngine(genasm.WithBackendName(name))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.AlignBatch(context.Background(), pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPairs(b, w)
			if st := eng.BackendStats(); st.Shards > 0 {
				b.ReportMetric(float64(st.Shards)/float64(st.Batches), "shards/batch")
			}
		})
	}
}

// BenchmarkEngineMapAlign times the full streaming map-align pipeline
// (candidate location + best-candidate alignment, ordered emission).
func BenchmarkEngineMapAlign(b *testing.B) {
	w := benchWorkload(b)
	mapper, err := genasm.NewMapper(dna.DecodeSeq(w.Ref))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := genasm.NewEngine(genasm.WithMapper(mapper))
	if err != nil {
		b.Fatal(err)
	}
	reads := make([]genasm.Read, len(w.Reads))
	for i, r := range w.Reads {
		reads[i] = genasm.Read{Name: r.Name, Seq: r.Seq}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.MapAlign(context.Background(), genasm.StreamReads(reads))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for m := range out {
			if m.Err != nil {
				b.Fatal(m.Err)
			}
			n++
		}
		if n != len(reads) {
			b.Fatalf("emitted %d items for %d reads", n, len(reads))
		}
	}
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkE3CPUAligners times every CPU aligner on the shared workload;
// comparing sub-benchmark ns/op reproduces the paper's CPU speedup table.
func BenchmarkE3CPUAligners(b *testing.B) {
	w := benchWorkload(b)
	b.Run("GenASM-improved", func(b *testing.B) {
		a, _ := core.New(core.DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
	b.Run("GenASM-unimproved", func(b *testing.B) {
		a, _ := baseline.New(baseline.DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
	b.Run("Edlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, _, err := edlib.AlignEncoded(p.Query, p.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
	b.Run("KSW2", func(b *testing.B) {
		params := ksw2.DefaultParams()
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, _, err := ksw2.GlobalAlignEncoded(p.Query, p.Ref, params); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
}

func reportPairs(b *testing.B, w *eval.Workload) {
	b.ReportMetric(float64(len(w.Pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkE4GPU reports the simulated-device time of both GPU kernels;
// the gpu-seconds metrics reproduce the paper's GPU comparison.
func BenchmarkE4GPU(b *testing.B) {
	w := benchWorkload(b)
	for _, algo := range []gpualign.Algorithm{gpualign.Improved, gpualign.Unimproved} {
		b.Run(algo.String(), func(b *testing.B) {
			var last gpualign.BatchResult
			for i := 0; i < b.N; i++ {
				res, err := gpualign.AlignBatch(w.Pairs, gpualign.DefaultConfig(algo))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Launch.Seconds*1e3, "gpu-ms")
			b.ReportMetric(last.Launch.Throughput(), "gpu-pairs/s")
			b.ReportMetric(float64(last.SpilledBlocks), "spilled-blocks")
		})
	}
}

// BenchmarkA1Ablation times each improvement combination (the paper's
// claim: the improvements are what beat Edlib).
func BenchmarkA1Ablation(b *testing.B) {
	w := benchWorkload(b)
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"SENE+DENT+ET", core.DefaultConfig()},
		{"SENE+DENT", func() core.Config { c := core.DefaultConfig(); c.DisableET = true; return c }()},
		{"SENE+ET", func() core.Config { c := core.DefaultConfig(); c.DisableDENT = true; return c }()},
		{"SENE", func() core.Config {
			c := core.DefaultConfig()
			c.DisableDENT, c.DisableET = true, true
			return c
		}()},
		{"none", func() core.Config {
			c := core.DefaultConfig()
			c.DisableSENE, c.DisableDENT, c.DisableET = true, true, true
			return c
		}()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var ctr stats.Counters
			for i := 0; i < b.N; i++ {
				ctr.Reset()
				alignAllImproved(b, w, tc.cfg, &ctr)
			}
			b.ReportMetric(float64(ctr.PeakFootprintBits), "footprint-bits")
			b.ReportMetric(float64(ctr.Accesses()), "accesses")
		})
	}
}

// BenchmarkA2WindowSweep times the window geometry sweep.
func BenchmarkA2WindowSweep(b *testing.B) {
	w := benchWorkload(b)
	for _, geo := range []struct{ W, O, K int }{
		{32, 12, 8}, {64, 24, 12}, {64, 32, 12}, {128, 48, 20},
	} {
		b.Run(
			"W"+itoa(geo.W)+"-O"+itoa(geo.O),
			func(b *testing.B) {
				cfg := core.Config{W: geo.W, O: geo.O, InitialK: geo.K}
				dist := 0
				for i := 0; i < b.N; i++ {
					a, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					dist = 0
					for _, p := range w.Pairs {
						r, err := a.AlignEncoded(p.Query, p.Ref)
						if err != nil {
							b.Fatal(err)
						}
						dist += r.Distance
					}
				}
				b.ReportMetric(float64(dist)/float64(w.TotalBases), "distance/base")
			})
	}
}

// BenchmarkA3ShortReads times the aligners on an Illumina-like workload.
func BenchmarkA3ShortReads(b *testing.B) {
	w, err := eval.BuildWorkload(eval.WorkloadConfig{
		GenomeLen: 300_000, Reads: 300, ReadLen: 150, ErrorRate: 0.02,
		Seed: 11, ShortReads: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("GenASM-improved", func(b *testing.B) {
		a, _ := core.New(core.DefaultConfig())
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
	b.Run("Edlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, _, err := edlib.AlignEncoded(p.Query, p.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
	b.Run("KSW2", func(b *testing.B) {
		params := ksw2.DefaultParams()
		for i := 0; i < b.N; i++ {
			for _, p := range w.Pairs {
				if _, _, err := ksw2.GlobalAlignEncoded(p.Query, p.Ref, params); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPairs(b, w)
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkA5Occupancy sweeps the GPU kernel's blocks-per-SM target.
func BenchmarkA5Occupancy(b *testing.B) {
	w := benchWorkload(b)
	for _, blocks := range []int{2, 8, 32} {
		b.Run("blocksPerSM-"+itoa(blocks), func(b *testing.B) {
			cfg := gpualign.DefaultConfig(gpualign.Improved)
			cfg.TargetBlocksPerSM = blocks
			var last gpualign.BatchResult
			for i := 0; i < b.N; i++ {
				res, err := gpualign.AlignBatch(w.Pairs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Launch.Seconds*1e3, "gpu-ms")
			b.ReportMetric(float64(last.SpilledBlocks), "spilled-blocks")
		})
	}
}

// BenchmarkA6Devices runs the improved kernel across the device zoo.
func BenchmarkA6Devices(b *testing.B) {
	w := benchWorkload(b)
	for _, dev := range []gpu.DeviceConfig{gpu.A6000(), gpu.A100(), gpu.LaptopGPU()} {
		b.Run(dev.Name, func(b *testing.B) {
			cfg := gpualign.DefaultConfig(gpualign.Improved)
			cfg.Device = dev
			var last gpualign.BatchResult
			for i := 0; i < b.N; i++ {
				res, err := gpualign.AlignBatch(w.Pairs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Launch.Seconds*1e3, "gpu-ms")
		})
	}
}

// benchSchedulerSubmit drives the serving layer's dynamic batcher with
// single-pair submissions from many goroutines — the serving traffic
// shape — so ns/op is the per-request cost including coalescing.
func benchSchedulerSubmit(b *testing.B, pairs []genasm.Pair) *server.Scheduler {
	eng, err := genasm.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	s := server.NewScheduler(eng, server.SchedulerConfig{
		MaxBatch: 64, MaxDelay: 2 * time.Millisecond, MaxQueue: 1 << 20,
	}, nil)
	b.Cleanup(s.Close)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i%len(pairs)]
			if _, err := s.Submit(context.Background(), []genasm.Pair{p}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	return s
}

// BenchmarkSchedulerCoalesce measures the server's dynamic batcher over
// the shared workload: concurrent single-pair requests coalescing into
// backend batches. pairs/batch shows the achieved coalescing.
func BenchmarkSchedulerCoalesce(b *testing.B) {
	w := benchWorkload(b)
	s := benchSchedulerSubmit(b, w.PublicPairs())
	b.ReportMetric(s.Metrics().Scrape().BatchSizeMean(), "pairs/batch")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "alignments/s")
}

// benchJSONPath enables the machine-readable benchmark mode:
//
//	go test -run TestBenchJSON -benchjson BENCH_7.json .
//
// writes a schema-4 report: ns/op and alignments/sec for every built-in
// backend (cpu, gpu and the multi sharding composite) and the serving
// scheduler; a "kernel" section with per-window kernel benches
// (ns/window, DP words touched), an EngineAlignBatch/cpu GOMAXPROCS
// 1/2/4 scaling curve, and the interleaved single-thread before/after
// record of the PR-10 kernel rewrite; plus a "serving" section from a
// short in-process internal/loadgen run over all five load scenarios —
// so the microbenchmark, kernel and serving-latency trajectories are
// all tracked across PRs.
var benchJSONPath = flag.String("benchjson", "", "write machine-readable benchmark results to this file")

// kernelBenchGeometries mirrors internal/core's kernel bench sweep: the
// single-word fast path, the first multi-word width, and a wide window
// whose banded storage is physically packed.
var kernelBenchGeometries = []struct {
	Name    string
	W, O, K int
}{
	{"dc64-w64", 64, 24, 12},
	{"mw-w128", 128, 48, 12},
	{"mw-packed-w200", 200, 50, 12},
}

type kernelEntry struct {
	Name          string  `json:"name"`
	NsPerWindow   float64 `json:"ns_per_window"`
	WordsPerWin   float64 `json:"words_per_window"`
	RowsSkipPerW  float64 `json:"rows_skipped_per_window"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	NsPerOp       int64   `json:"ns_per_op"`
	WindowsPerRun float64 `json:"windows_per_op"`
}

// kernelBenchPair builds one ~10%-substitution window pair, matching
// internal/core's benchPair.
func kernelBenchPair(m int, seed int64) (p, tx []byte) {
	rng := rand.New(rand.NewSource(seed))
	p = make([]byte, m)
	for i := range p {
		p[i] = byte(rng.Intn(4))
	}
	tx = make([]byte, m)
	copy(tx, p)
	for i := 0; i < m/10; i++ {
		tx[rng.Intn(m)] = byte(rng.Intn(4))
	}
	return p, tx
}

// runKernelBench benchmarks fn (which aligns once per iteration through
// an aligner wired to ctr) and converts the counters to per-window rows.
func runKernelBench(t *testing.T, name string, ctr *stats.Counters, fn func(b *testing.B)) kernelEntry {
	t.Helper()
	ctr.Reset()
	r := testing.Benchmark(fn)
	wins := float64(ctr.Windows)
	if wins == 0 {
		t.Fatalf("kernel bench %s aligned no windows", name)
	}
	return kernelEntry{
		Name:          name,
		NsPerWindow:   r.T.Seconds() * 1e9 / wins,
		WordsPerWin:   float64(ctr.TableWrites+ctr.TableReads) / wins,
		RowsSkipPerW:  float64(ctr.RowsSkipped) / wins,
		AllocsPerOp:   r.AllocsPerOp(),
		NsPerOp:       r.NsPerOp(),
		WindowsPerRun: wins / float64(r.N),
	}
}

// kernelSection measures the kernel-level benches (window + pipeline per
// geometry) and the EngineAlignBatch/cpu GOMAXPROCS scaling curve, and
// embeds the static interleaved single-thread A/B of the PR-10 kernel
// rewrite (measured once on one machine in one session, following the
// observability_ab precedent in BENCH_4.json).
func kernelSection(t *testing.T, pairs []genasm.Pair) map[string]any {
	var window, pipeline []kernelEntry
	for _, g := range kernelBenchGeometries {
		var ctr stats.Counters
		p, tx := kernelBenchPair(g.W, 3)
		a, err := core.New(core.Config{W: g.W, O: g.O, InitialK: g.K})
		if err != nil {
			t.Fatal(err)
		}
		a.SetCounters(&ctr)
		window = append(window, runKernelBench(t, g.Name, &ctr, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.AlignWindow(p, tx); err != nil {
					b.Fatal(err)
				}
			}
		}))

		rng := rand.New(rand.NewSource(9))
		ref := make([]byte, 5500)
		for i := range ref {
			ref[i] = byte(rng.Intn(4))
		}
		read := append([]byte(nil), ref[:5000]...)
		for i := range read {
			if rng.Float64() < 0.10 {
				read[i] = byte(rng.Intn(4))
			}
		}
		pa, err := core.New(core.Config{W: g.W, O: g.O, InitialK: g.K})
		if err != nil {
			t.Fatal(err)
		}
		var pctr stats.Counters
		pa.SetCounters(&pctr)
		pipeline = append(pipeline, runKernelBench(t, g.Name, &pctr, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pa.AlignEncoded(read, ref); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// GOMAXPROCS scaling curve over the end-to-end CPU backend. On a
	// single-core CI runner the curve is flat; on wider machines it shows
	// how far the batch path scales.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	type curveRow struct {
		GOMAXPROCS       int     `json:"gomaxprocs"`
		NsPerOp          int64   `json:"ns_per_op"`
		AlignmentsPerSec float64 `json:"alignments_per_sec"`
	}
	var curve []curveRow
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		eng, err := genasm.NewEngine(genasm.WithBackendName("cpu"))
		if err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.AlignBatch(context.Background(), pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
		curve = append(curve, curveRow{
			GOMAXPROCS:       procs,
			NsPerOp:          r.NsPerOp(),
			AlignmentsPerSec: float64(len(pairs)) * float64(r.N) / r.T.Seconds(),
		})
	}
	runtime.GOMAXPROCS(prev)

	return map[string]any{
		"window":           window,
		"pipeline":         pipeline,
		"gomaxprocs_curve": curve,
		"single_thread_ab": map[string]any{
			"method": "interleaved A/B on one machine in one session: pre-change test binary " +
				"(commit 81273c8) vs this tree, alternating rounds of -test.bench " +
				"'EngineAlignBatch/cpu$' -benchtime 5x and 'WindowAlign/improved$' -benchtime 100000x",
			"engine_alignbatch_cpu_ns_per_op": map[string]any{
				"base": []int64{50329546, 51629879, 52973516},
				"new":  []int64{18168133, 20624066, 20863205},
			},
			"window_align_improved_ns_per_op": map[string]any{
				"base": []float64{2425, 2105, 2212},
				"new":  []float64{991.6, 1014, 972.9},
			},
			"window_align_improved_allocs_per_op": map[string]any{"base": 5, "new": 1},
			"conclusion": "stored-row-reuse single-word kernel, fused multi-word kernel with packed " +
				"band storage, run-length traceback and fmt-free CIGAR rendering deliver ~2.6x " +
				"EngineAlignBatch/cpu and ~2.3x per-window throughput at bit-identical outputs " +
				"(parity suite, geometry ablation matrix and differential fuzzing all green)",
		},
	}
}

func TestBenchJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("-benchjson not set")
	}
	w := benchWorkload(t)
	pairs := w.PublicPairs()

	type entry struct {
		Name             string  `json:"name"`
		NsPerOp          int64   `json:"ns_per_op"`
		AlignmentsPerSec float64 `json:"alignments_per_sec"`
		AllocsPerOp      int64   `json:"allocs_per_op"`
		BytesPerOp       int64   `json:"bytes_per_op"`
		ShardsPerBatch   float64 `json:"shards_per_batch,omitempty"`
	}
	var entries []entry
	for _, name := range benchBackends {
		eng, err := genasm.NewEngine(genasm.WithBackendName(name))
		if err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.AlignBatch(context.Background(), pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
		e := entry{
			Name:             "EngineAlignBatch/" + name,
			NsPerOp:          r.NsPerOp(),
			AlignmentsPerSec: float64(len(pairs)) * float64(r.N) / r.T.Seconds(),
			AllocsPerOp:      r.AllocsPerOp(),
			BytesPerOp:       r.AllocedBytesPerOp(),
		}
		if st := eng.BackendStats(); st.Shards > 0 && st.Batches > 0 {
			e.ShardsPerBatch = float64(st.Shards) / float64(st.Batches)
		}
		entries = append(entries, e)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		benchSchedulerSubmit(b, pairs)
	})
	entries = append(entries, entry{
		Name:             "SchedulerCoalesce",
		NsPerOp:          r.NsPerOp(),
		AlignmentsPerSec: float64(r.N) / r.T.Seconds(), // one pair per op
		AllocsPerOp:      r.AllocsPerOp(),
		BytesPerOp:       r.AllocedBytesPerOp(),
	})

	report := map[string]any{
		"schema":     4,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload": map[string]any{
			"genome_len": 1_000_000, "reads": 40, "read_len": 5_000, "error_rate": 0.10,
			"pairs": len(pairs),
		},
		"benchmarks": entries,
		"kernel":     kernelSection(t, pairs),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// Serving section: boot the full server in-process (jobs lane
	// enabled so the bulk scenario is exercised) and run every load
	// scenario briefly; WriteBench merges the results into the report
	// just written.
	srv, err := server.New(server.Config{Jobs: jobs.Config{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	var results []*loadgen.Result
	for _, scenario := range loadgen.Scenarios() {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  ts.URL,
			Scenario: scenario,
			Seed:     7,
			Warmup:   300 * time.Millisecond,
			Duration: 1200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("serving scenario %s: %v", scenario, err)
		}
		t.Logf("%-9s rps %.1f p50 %.2fms p99 %.2fms req %d err %d 429 %d",
			res.Scenario, res.AchievedRPS, res.P50ms, res.P99ms, res.Requests, res.Errors, res.Status429)
		results = append(results, res)
	}
	if err := loadgen.WriteBench(*benchJSONPath, loadgen.Report{
		Target: "in-process httptest", Seed: 7, Scenarios: results,
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchJSONPath)
}

// BenchmarkWindowAlign is the micro-benchmark of the core contribution:
// one 64-base window alignment at 10% error.
func BenchmarkWindowAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, 64)
	for i := range p {
		p[i] = byte(rng.Intn(4))
	}
	tx := make([]byte, 64)
	copy(tx, p)
	for i := 0; i < 6; i++ { // ~10% substitutions
		tx[rng.Intn(64)] = byte(rng.Intn(4))
	}
	b.Run("improved", func(b *testing.B) {
		a, _ := core.New(core.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.AlignWindow(p, tx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unimproved", func(b *testing.B) {
		a, _ := baseline.New(baseline.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.AlignWindow(p, tx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

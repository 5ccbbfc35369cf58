// Go micro-benchmarks of the public Engine API, the serving scheduler and
// the window kernel. They are smoke-run in CI so they cannot rot; the
// paper's tables come from internal/eval (printed by cmd/genasm-eval), and
// end-to-end and per-layer numbers come from the benchmark/ harness (see
// benchmark/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem
package genasm_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/eval"
	"genasm/server"
)

var (
	workloadOnce sync.Once
	benchW       *eval.Workload
)

// benchWorkload builds one shared moderate workload: 1 Mb genome, 40 reads
// of ~5 kb at 10% error (the paper's pipeline, scaled to bench runtime).
func benchWorkload(b *testing.B) *eval.Workload {
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

// benchBackends are the registered backend names the engine benchmarks
// sweep: both leaves plus the sharding composite, all through the public
// registry API.
var benchBackends = []string{"cpu", "gpu", "multi(cpu,gpu)"}

// BenchmarkEngineAlignBatch times the public Engine API on every
// built-in backend over the shared workload — the end-to-end path
// production callers hit (pooled aligners, context checks, encode
// included; for multi, the capability-weighted shard split).
func BenchmarkEngineAlignBatch(b *testing.B) {
	pairs := benchWorkload(b).PublicPairs()
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
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
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

// BenchmarkSchedulerCoalesce measures the server's dynamic batcher over
// the shared workload: concurrent single-pair submissions from many
// goroutines (the serving traffic shape) coalescing into backend
// batches, so ns/op is the per-request cost including coalescing.
// pairs/batch shows the achieved coalescing.
func BenchmarkSchedulerCoalesce(b *testing.B) {
	pairs := benchWorkload(b).PublicPairs()
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
	b.ReportMetric(s.Metrics().Scrape().BatchSizeMean(), "pairs/batch")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "alignments/s")
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

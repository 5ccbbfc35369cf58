package core

// Kernel-level benchmark harness, below the Engine and pipeline layers.
// These benches time exactly what the paper's E3 speed claims are about —
// the window distance calculation plus traceback — and report the custom
// metrics the kernel work is judged by:
//
//	ns/window       wall-clock per window alignment
//	words/window    DP-table words touched (stores during DC + loads
//	                during traceback), from stats.Counters
//	B/op, allocs/op steady-state allocation behaviour
//
// Run with:
//
//	go test -bench 'BenchmarkWindowKernel|BenchmarkPipelineKernel' ./internal/core
//
// The per-layer numbers for the kernel in real workloads (ns/window,
// DP bytes per window, scaling across GOMAXPROCS) come from the
// benchmark/ harness's core.* and engine.scaling_eff metrics.

import (
	"math/rand"
	"testing"

	"genasm/internal/stats"
)

// benchPair builds one (pattern, text) window pair of width m with ~10%
// substitutions, deterministic per seed.
func benchPair(m int, seed int64) (p, tx []byte) {
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

// kernelGeometries are the window shapes the kernel benches sweep: the
// single-word fast path, the first multi-word width, and a wide window
// where banded storage is physically packed (1 band word vs 4 state words).
var kernelGeometries = []struct {
	Name    string
	W, O, K int
}{
	{"dc64-w64", 64, 24, 12},
	{"mw-w128", 128, 48, 12},
	{"mw-packed-w200", 200, 50, 12},
}

// BenchmarkWindowKernel times one window alignment (distance + traceback)
// per geometry and reports DP words touched per window.
func BenchmarkWindowKernel(b *testing.B) {
	for _, g := range kernelGeometries {
		b.Run(g.Name, func(b *testing.B) {
			p, tx := benchPair(g.W, 3)
			a, err := New(Config{W: g.W, O: g.O, InitialK: g.K})
			if err != nil {
				b.Fatal(err)
			}
			var ctr stats.Counters
			a.SetCounters(&ctr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AlignWindow(p, tx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportKernelMetrics(b, &ctr)
		})
	}
}

// BenchmarkPipelineKernel times the windowed pipeline (AlignEncoded) over
// a 5 kb read at 10% error, normalized per window so the numbers are
// comparable with BenchmarkWindowKernel.
func BenchmarkPipelineKernel(b *testing.B) {
	for _, g := range kernelGeometries {
		b.Run(g.Name, func(b *testing.B) {
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
			a, err := New(Config{W: g.W, O: g.O, InitialK: g.K})
			if err != nil {
				b.Fatal(err)
			}
			var ctr stats.Counters
			a.SetCounters(&ctr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AlignEncoded(read, ref); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportKernelMetrics(b, &ctr)
		})
	}
}

// reportKernelMetrics converts the accumulated counters into per-window
// benchmark metrics. ns/window divides wall time by windows aligned, so
// pipeline runs (many windows per op) and window runs (one) agree.
func reportKernelMetrics(b *testing.B, ctr *stats.Counters) {
	if ctr.Windows == 0 {
		return
	}
	wins := float64(ctr.Windows)
	b.ReportMetric(b.Elapsed().Seconds()*1e9/wins, "ns/window")
	b.ReportMetric(float64(ctr.TableWrites+ctr.TableReads)/wins, "words/window")
	b.ReportMetric(float64(ctr.RowsSkipped)/wins, "rows-skipped/window")
}

package eval

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"genasm"
	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/ksw2"
	"genasm/internal/stats"
	"genasm/internal/swg"
)

// The timed experiments (E3, E4, A1, A2, A7) run through the public
// genasm.Engine — the same code path production callers use — so the
// tables measure the shipped API, not a private harness. The memory
// instrumentation experiments (E1, E2, counter columns of A1) stay on the
// internal counter hooks, which the public API deliberately does not
// expose.

// runCounters aligns every pair with the given aligner constructor and
// aggregates memory counters.
func runCounters(w *Workload, mk func() (counterAligner, error)) (stats.Counters, error) {
	var agg stats.Counters
	a, err := mk()
	if err != nil {
		return agg, err
	}
	var c stats.Counters
	a.SetCounters(&c)
	for _, p := range w.Pairs {
		if _, err := a.AlignEncoded(p.Query, p.Ref); err != nil {
			return agg, err
		}
	}
	agg = c
	return agg, nil
}

// counterAligner is the method set *core.Aligner and *baseline.Aligner
// share.
type counterAligner interface {
	AlignEncoded(q, t []byte) (core.Result, error)
	SetCounters(c *stats.Counters)
}

func newImproved(cfg core.Config) func() (counterAligner, error) {
	return func() (counterAligner, error) { return core.New(cfg) }
}

func newUnimproved() func() (counterAligner, error) {
	return func() (counterAligner, error) { return baseline.New(baseline.DefaultConfig()) }
}

// E1MemoryFootprint reproduces the paper's "24x smaller memory footprint":
// the peak per-window DP working set of improved vs unimproved GenASM.
func E1MemoryFootprint(w *Workload) (*Table, error) {
	imp, err := runCounters(w, newImproved(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	unimp, err := runCounters(w, newUnimproved())
	if err != nil {
		return nil, err
	}
	ratio := unimp.MeanWindowFootprintBits() / imp.MeanWindowFootprintBits()
	peakRatio := float64(unimp.PeakFootprintBits) / float64(imp.PeakFootprintBits)
	return &Table{
		ID:     "E1",
		Title:  "DP-table memory footprint per window (paper: 24x reduction)",
		Header: []string{"algorithm", "mean footprint (bits)", "peak footprint (bits)"},
		Rows: [][]string{
			{"GenASM (unimproved)", fmt.Sprintf("%.0f", unimp.MeanWindowFootprintBits()), fmt.Sprint(unimp.PeakFootprintBits)},
			{"GenASM (improved)", fmt.Sprintf("%.0f", imp.MeanWindowFootprintBits()), fmt.Sprint(imp.PeakFootprintBits)},
			{"reduction", fmt.Sprintf("%.1fx", ratio), fmt.Sprintf("%.1fx", peakRatio)},
		},
		Notes: []string{
			"mean is the typical per-window working set (what a GPU block provisions); peaks are inflated by rare error-budget-doubling retries on false candidate locations",
			"paper reports 24x with its window parameters; the realized factor depends on k and the per-window distance d*",
		},
	}, nil
}

// E2MemoryAccesses reproduces the paper's "12x fewer memory accesses":
// word-granular DP-table reads+writes during DC and traceback.
func E2MemoryAccesses(w *Workload) (*Table, error) {
	imp, err := runCounters(w, newImproved(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	unimp, err := runCounters(w, newUnimproved())
	if err != nil {
		return nil, err
	}
	ratio := float64(unimp.Accesses()) / float64(imp.Accesses())
	byteRatio := float64(unimp.TrafficBytes()) / float64(imp.TrafficBytes())
	rowsSkipped := float64(imp.RowsSkipped) / float64(imp.RowsComputed+imp.RowsSkipped)
	return &Table{
		ID:     "E2",
		Title:  "DP-table memory accesses (paper: 12x reduction)",
		Header: []string{"algorithm", "writes", "reads", "total", "traffic (bytes)"},
		Rows: [][]string{
			{"GenASM (unimproved)", fmt.Sprint(unimp.TableWrites), fmt.Sprint(unimp.TableReads), fmt.Sprint(unimp.Accesses()), fmt.Sprint(unimp.TrafficBytes())},
			{"GenASM (improved)", fmt.Sprint(imp.TableWrites), fmt.Sprint(imp.TableReads), fmt.Sprint(imp.Accesses()), fmt.Sprint(imp.TrafficBytes())},
			{"reduction", "", "", fmt.Sprintf("%.1fx", ratio), fmt.Sprintf("%.1fx", byteRatio)},
		},
		Notes: []string{
			fmt.Sprintf("early termination skipped %.0f%% of error-level rows", 100*rowsSkipped),
			"the paper counts memory traffic; banded improved entries are packed sub-word stores, so the byte ratio is the comparable number",
		},
	}, nil
}

// cpuAligner is one named competitor in E3.
type cpuAligner struct {
	Name      string
	Algorithm genasm.Algorithm
	// ScoreOnly marks the SWG reference, which is timed score-only (its
	// full-matrix traceback would not fit memory at 10 kb reads).
	ScoreOnly bool
}

// CPUAligners returns the paper's CPU competitor set. SWG is included as
// the quadratic-DP reference the introduction motivates against.
func CPUAligners(includeSWG bool) []cpuAligner {
	out := []cpuAligner{
		{Name: "GenASM-improved", Algorithm: genasm.GenASM},
		{Name: "GenASM-unimproved", Algorithm: genasm.GenASMUnimproved},
		{Name: "Edlib", Algorithm: genasm.Edlib},
		{Name: "KSW2", Algorithm: genasm.KSW2},
	}
	if includeSWG {
		out = append(out, cpuAligner{Name: "SWG (full DP, score only)", Algorithm: genasm.SWG, ScoreOnly: true})
	}
	return out
}

// timeEngine measures wall time aligning all pairs through an Engine
// built from opts with `threads` workers.
func timeEngine(ctx context.Context, w *Workload, threads int, opts ...genasm.Option) (time.Duration, []genasm.Result, error) {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	eng, err := genasm.NewEngine(append(opts, genasm.WithThreads(threads))...)
	if err != nil {
		return 0, nil, err
	}
	pairs := w.PublicPairs()
	start := time.Now()
	res, err := eng.AlignBatch(ctx, pairs)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), res, nil
}

// timeSWGScoreOnly times the quadratic reference, score only, threaded
// like the Engine's CPU backend.
func timeSWGScoreOnly(ctx context.Context, w *Workload, threads int) (time.Duration, error) {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	pairs := w.PublicPairs()
	pen := ksw2.DefaultParams().Penalties
	jobs := make(chan int, len(pairs))
	for i := range pairs {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				swg.AffineScore(pairs[i].Query, pairs[i].Ref, pen)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// timeAligner measures wall time aligning all pairs with one competitor.
func timeAligner(ctx context.Context, w *Workload, a cpuAligner, threads int) (time.Duration, error) {
	if a.ScoreOnly {
		return timeSWGScoreOnly(ctx, w, threads)
	}
	el, _, err := timeEngine(ctx, w, threads, genasm.WithAlgorithm(a.Algorithm))
	return el, err
}

// E3CPU reproduces the paper's CPU comparison: improved GenASM vs KSW2
// (paper 15.2x), Edlib (1.7x) and unimproved GenASM (1.9x).
func E3CPU(ctx context.Context, w *Workload, threads int, includeSWG bool) (*Table, map[string]time.Duration, error) {
	times := map[string]time.Duration{}
	tab := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("CPU alignment time, %d pairs / %d query bases (paper speedups vs improved: KSW2 15.2x, Edlib 1.7x, unimproved 1.9x)", len(w.Pairs), w.TotalBases),
		Header: []string{"aligner", "time", "pairs/s", "speedup of improved"},
	}
	for _, a := range CPUAligners(includeSWG) {
		el, err := timeAligner(ctx, w, a, threads)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		times[a.Name] = el
	}
	ref := times["GenASM-improved"]
	for _, a := range CPUAligners(includeSWG) {
		el := times[a.Name]
		tab.Rows = append(tab.Rows, []string{
			a.Name,
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(w.Pairs))/el.Seconds()),
			fmt.Sprintf("%.1fx", el.Seconds()/ref.Seconds()),
		})
	}
	return tab, times, nil
}

// E4GPU reproduces the paper's GPU comparison on the simulated A6000:
// improved-GPU vs improved-CPU (paper 4.1x), vs unimproved-GPU (5.9x), and
// vs the CPU baselines (KSW2 62x, Edlib 7.2x).
func E4GPU(ctx context.Context, w *Workload, cpuTimes map[string]time.Duration) (*Table, error) {
	launch := func(algo genasm.Algorithm) (genasm.GPUStats, error) {
		eng, err := genasm.NewEngine(genasm.WithBackendName("gpu"), genasm.WithAlgorithm(algo))
		if err != nil {
			return genasm.GPUStats{}, err
		}
		if _, err := eng.AlignBatch(ctx, w.PublicPairs()); err != nil {
			return genasm.GPUStats{}, err
		}
		st := eng.BackendStats()
		if st.GPU == nil {
			return genasm.GPUStats{}, fmt.Errorf("gpu backend reported no launch stats")
		}
		return *st.GPU, nil
	}
	imp, err := launch(genasm.GenASM)
	if err != nil {
		return nil, err
	}
	unimp, err := launch(genasm.GenASMUnimproved)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "E4",
		Title:  "GPU (simulated A6000) vs CPU (paper: 4.1x vs own CPU, 5.9x vs unimproved GPU, 62x vs KSW2, 7.2x vs Edlib)",
		Header: []string{"configuration", "time", "pairs/s", "speedup of improved GPU"},
	}
	gi := imp.Seconds
	row := func(name string, sec float64) {
		tab.Rows = append(tab.Rows, []string{
			name,
			(time.Duration(sec * float64(time.Second))).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(len(w.Pairs))/sec),
			fmt.Sprintf("%.1fx", sec/gi),
		})
	}
	row("GenASM-improved GPU", gi)
	row("GenASM-unimproved GPU", unimp.Seconds)
	for _, name := range []string{"GenASM-improved", "GenASM-unimproved", "Edlib", "KSW2"} {
		if el, ok := cpuTimes[name]; ok {
			row(name+" CPU", el.Seconds())
		}
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("improved kernel: %d/%d blocks in shared memory; unimproved: %d/%d spilled to L2",
			imp.SharedBlocks, len(w.Pairs), unimp.SpilledBlocks, len(w.Pairs)),
		"GPU times come from the cycle-accurate-ish cost model in internal/gpu; CPU times are measured wall clock (scalar Go), so cross-domain ratios are larger than the paper's SIMD-C vs CUDA ratios",
	)
	return tab, nil
}

// E5Backend times Engine.AlignBatch through the public backend registry
// on the selected backend name against the cpu baseline: the end-to-end
// host cost of the shipped API on any registered backend, including the
// "multi" sharding composite (whose per-child pair split the notes
// report). Host wall clock, so the gpu rows measure the simulator's
// execution cost — the modelled device seconds live in E4.
func E5Backend(ctx context.Context, w *Workload, name string, threads int) (*Table, error) {
	names := []string{"cpu"}
	if name != "cpu" {
		names = append(names, name)
	}
	tab := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Engine backend registry: AlignBatch host throughput, %d pairs", len(w.Pairs)),
		Header: []string{"backend", "time", "pairs/s", "speedup vs cpu"},
	}
	var cpuSec float64
	for _, be := range names {
		eng, err := genasm.NewEngine(genasm.WithBackendName(be), genasm.WithThreads(threads))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := eng.AlignBatch(ctx, w.PublicPairs()); err != nil {
			return nil, fmt.Errorf("%s: %w", be, err)
		}
		el := time.Since(start)
		if be == "cpu" {
			cpuSec = el.Seconds()
		}
		tab.Rows = append(tab.Rows, []string{
			be,
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(w.Pairs))/el.Seconds()),
			fmt.Sprintf("%.1fx", cpuSec/el.Seconds()),
		})
		if st := eng.BackendStats(); len(st.Children) > 0 {
			split := ""
			for i, c := range st.Children {
				if i > 0 {
					split += ", "
				}
				split += fmt.Sprintf("%s=%d", c.Name, c.Pairs)
			}
			tab.Notes = append(tab.Notes,
				fmt.Sprintf("%s split the batch over %d shards: %s", be, st.Shards, split))
		}
	}
	return tab, nil
}

// A1Ablation toggles each improvement separately (the paper's claim that
// the improvements are what make GenASM outrun Edlib).
func A1Ablation(ctx context.Context, w *Workload, threads int) (*Table, error) {
	cfgs := []struct {
		name           string
		sene, dent, et bool // disables
	}{
		{"all improvements (SENE+DENT+ET)", false, false, false},
		{"SENE+DENT (no ET)", false, false, true},
		{"SENE+ET (no DENT)", false, true, false},
		{"SENE only", false, true, true},
		{"none (edge storage, no ET)", true, true, true},
	}
	tab := &Table{
		ID:     "A1",
		Title:  "Ablation: contribution of each improvement",
		Header: []string{"configuration", "time", "peak footprint (bits)", "accesses"},
	}
	for _, c := range cfgs {
		el, _, err := timeEngine(ctx, w, threads, genasm.WithAblation(c.sene, c.dent, c.et))
		if err != nil {
			return nil, err
		}
		coreCfg := core.DefaultConfig()
		coreCfg.DisableSENE, coreCfg.DisableDENT, coreCfg.DisableET = c.sene, c.dent, c.et
		ctr, err := runCounters(w, newImproved(coreCfg))
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			c.name, el.Round(time.Millisecond).String(),
			fmt.Sprint(ctr.PeakFootprintBits), fmt.Sprint(ctr.Accesses()),
		})
	}
	return tab, nil
}

// A2WindowSweep measures sensitivity to window size and overlap.
func A2WindowSweep(ctx context.Context, w *Workload, threads int) (*Table, error) {
	tab := &Table{
		ID:     "A2",
		Title:  "Window geometry sweep (accuracy vs speed)",
		Header: []string{"W", "O", "k", "time", "mean distance/base"},
	}
	for _, geo := range []struct{ W, O, K int }{
		{32, 12, 8}, {64, 24, 12}, {64, 32, 12}, {128, 48, 20},
	} {
		el, res, err := timeEngine(ctx, w, threads, genasm.WithWindow(geo.W, geo.O, geo.K))
		if err != nil {
			return nil, err
		}
		var total int64
		for _, r := range res {
			total += int64(r.Distance)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(geo.W), fmt.Sprint(geo.O), fmt.Sprint(geo.K),
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", float64(total)/float64(w.TotalBases)),
		})
	}
	tab.Notes = append(tab.Notes,
		"larger overlap lowers the committed distance (closer to optimal) at higher cost; W=64/O=24 is the paper's setting")
	return tab, nil
}

// A3ShortReads reruns the CPU comparison on an Illumina-like workload
// (the paper claims both short and long reads are supported).
func A3ShortReads(ctx context.Context, threads int) (*Table, error) {
	cfg := WorkloadConfig{GenomeLen: 500_000, Reads: 400, ReadLen: 150,
		ErrorRate: 0.02, Seed: 11, ShortReads: true}
	w, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	tab, _, err := E3CPU(ctx, w, threads, false)
	if err != nil {
		return nil, err
	}
	tab.ID = "A3"
	tab.Title = "Short reads (150 bp, 2% error): " + tab.Title
	return tab, nil
}

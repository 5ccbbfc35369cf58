package eval

import (
	"context"
	"fmt"
	"time"

	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/edlib"
	"genasm/internal/gpu"
	"genasm/internal/gpualign"
	"genasm/internal/ksw2"
	"genasm/internal/swg"
)

// Extension experiments beyond the paper's reported numbers: accuracy
// against ground truth (A4), GPU occupancy sensitivity (A5), and device
// portability (A6). These probe the design choices behind the paper's
// numbers.

// A4Accuracy compares each aligner's realized alignment cost against the
// exact edit distance (Edlib's answer on the GenASM-consumed span), so the
// windowing heuristic's accuracy loss is quantified.
func A4Accuracy(w *Workload) (*Table, error) {
	imp, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	unimp, err := baseline.New(baseline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	kp := ksw2.DefaultParams()

	var impDist, unimpDist, edlibDist, ksw2Dist, exact int64
	suboptPairs := 0
	for _, p := range w.Pairs {
		ri, err := imp.AlignEncoded(p.Query, p.Ref)
		if err != nil {
			return nil, err
		}
		ru, err := unimp.AlignEncoded(p.Query, p.Ref)
		if err != nil {
			return nil, err
		}
		// Exact distance over the same span GenASM chose to consume,
		// so the numbers are directly comparable.
		span := p.Ref[:ri.RefConsumed]
		ed := edlib.DistanceEncoded(p.Query, span)
		_, kcg, err := ksw2.GlobalAlignEncoded(p.Query, span, kp)
		if err != nil {
			return nil, err
		}
		impDist += int64(ri.Distance)
		unimpDist += int64(ru.Distance)
		edlibDist += int64(ed)
		ksw2Dist += int64(kcg.EditCost())
		exact += int64(ed)
		if ri.Distance > ed {
			suboptPairs++
		}
	}
	perBase := func(d int64) string {
		return fmt.Sprintf("%.5f", float64(d)/float64(w.TotalBases))
	}
	excess := func(d int64) string {
		if exact == 0 {
			return "n/a"
		}
		return fmt.Sprintf("+%.2f%%", 100*float64(d-exact)/float64(exact))
	}
	return &Table{
		ID:     "A4",
		Title:  "Alignment accuracy vs exact edit distance (same consumed span)",
		Header: []string{"aligner", "distance/base", "excess over exact"},
		Rows: [][]string{
			{"exact (Edlib)", perBase(edlibDist), excess(edlibDist)},
			{"GenASM improved (windowed)", perBase(impDist), excess(impDist)},
			{"GenASM unimproved (windowed)", perBase(unimpDist), excess(unimpDist)},
			{"KSW2 (affine-optimal path)", perBase(ksw2Dist), excess(ksw2Dist)},
		},
		Notes: []string{
			fmt.Sprintf("windowing chose a suboptimal alignment on %d/%d pairs", suboptPairs, len(w.Pairs)),
			"KSW2 optimizes affine score, so its unit-cost edit count may exceed the unit-cost optimum",
		},
	}, nil
}

// A5OccupancySweep varies the per-block shared-memory allocation
// (occupancy) of the improved GPU kernel: too few blocks per SM starves
// parallelism, too many shrinks the allocation until windows spill.
func A5OccupancySweep(w *Workload) (*Table, error) {
	tab := &Table{
		ID:     "A5",
		Title:  "GPU occupancy sweep (improved kernel, A6000 model)",
		Header: []string{"blocks/SM target", "shared/block (KiB)", "time", "spilled blocks"},
	}
	for _, blocks := range []int{2, 4, 8, 16, 32} {
		cfg := gpualign.DefaultConfig(gpualign.Improved)
		cfg.TargetBlocksPerSM = blocks
		res, err := gpualign.AlignBatch(w.Pairs, cfg)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(blocks),
			fmt.Sprintf("%.1f", float64(cfg.Device.SharedMemPerSM/blocks)/1024),
			(time.Duration(res.Launch.Seconds * float64(time.Second))).Round(time.Microsecond).String(),
			fmt.Sprint(res.SpilledBlocks),
		})
	}
	return tab, nil
}

// A6Devices runs both kernels across the modelled device zoo.
func A6Devices(w *Workload) (*Table, error) {
	tab := &Table{
		ID:     "A6",
		Title:  "Device portability (simulated)",
		Header: []string{"device", "improved", "unimproved", "improvement speedup"},
	}
	for _, dev := range []gpu.DeviceConfig{gpu.A6000(), gpu.A100(), gpu.LaptopGPU()} {
		impCfg := gpualign.DefaultConfig(gpualign.Improved)
		impCfg.Device = dev
		imp, err := gpualign.AlignBatch(w.Pairs, impCfg)
		if err != nil {
			return nil, err
		}
		unimpCfg := gpualign.DefaultConfig(gpualign.Unimproved)
		unimpCfg.Device = dev
		unimp, err := gpualign.AlignBatch(w.Pairs, unimpCfg)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			dev.Name,
			(time.Duration(imp.Launch.Seconds * float64(time.Second))).Round(time.Microsecond).String(),
			(time.Duration(unimp.Launch.Seconds * float64(time.Second))).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", unimp.Launch.Seconds/imp.Launch.Seconds),
		})
	}
	tab.Notes = append(tab.Notes,
		"the improvement factor grows as memory bandwidth shrinks (laptop) because the unimproved kernel is bandwidth-bound")
	return tab, nil
}

// SWGReference exposes the quadratic DP as a sanity row for small
// workloads (used by tests; E3 includes it behind a flag).
func SWGReference(w *Workload) (time.Duration, error) {
	start := time.Now()
	for _, p := range w.Pairs {
		swg.AffineScore(dna.DecodeSeq(p.Query), dna.DecodeSeq(p.Ref), ksw2.DefaultParams().Penalties)
	}
	return time.Since(start), nil
}

// A7ThreadScaling measures the improved CPU aligner's multithreaded
// scaling (the paper ran its CPU comparison with 48 threads; this shows
// how throughput scales with the thread count on the host).
func A7ThreadScaling(ctx context.Context, w *Workload, maxThreads int) (*Table, error) {
	tab := &Table{
		ID:     "A7",
		Title:  "CPU thread scaling, improved GenASM",
		Header: []string{"threads", "time", "pairs/s", "scaling"},
	}
	aligner := CPUAligners(false)[0] // GenASM-improved
	var base time.Duration
	for threads := 1; threads <= maxThreads; threads *= 2 {
		el, err := timeAligner(ctx, w, aligner, threads)
		if err != nil {
			return nil, err
		}
		if threads == 1 {
			base = el
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(threads),
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(w.Pairs))/el.Seconds()),
			fmt.Sprintf("%.2fx", base.Seconds()/el.Seconds()),
		})
	}
	return tab, nil
}

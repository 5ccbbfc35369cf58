// Command genasm-eval reproduces the paper's full evaluation: it builds the
// workload (synthetic genome -> PBSIM2-like reads -> minimap2-like -P
// candidate locations) and prints one table per reported result:
//
//	E1  DP-table memory footprint      (paper: 24x reduction)
//	E2  DP-table memory accesses       (paper: 12x reduction)
//	E3  CPU aligner comparison         (paper: 15.2x KSW2, 1.7x Edlib, 1.9x unimproved)
//	E4  GPU (simulated A6000) vs CPU   (paper: 4.1x own CPU, 5.9x unimproved GPU, 62x KSW2, 7.2x Edlib)
//	A1  per-improvement ablation
//	A2  window geometry sweep
//	A3  short reads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"genasm"
	"genasm/internal/eval"
)

func main() {
	var (
		genomeLen = flag.Int("genome", 2_000_000, "synthetic genome length (bp)")
		reads     = flag.Int("reads", 100, "number of simulated long reads (paper: 500)")
		readLen   = flag.Int("readlen", 10_000, "mean read length (paper: 10kb)")
		errRate   = flag.Float64("error", 0.10, "mean read error rate")
		seed      = flag.Int64("seed", 7, "workload seed")
		threads   = flag.Int("threads", runtime.GOMAXPROCS(0), "CPU threads for E3/A1-A3")
		backend   = flag.String("backend", "multi(cpu,gpu)",
			"engine backend for E5, any registered name: "+strings.Join(genasm.Backends(), " | "))
		maxPairs = flag.Int("max-pairs", 0, "cap candidate pairs (0 = all)")
		quick    = flag.Bool("quick", false, "small workload for a fast smoke run")
		withSWG  = flag.Bool("swg", false, "include the quadratic SWG reference in E3 (slow)")
		skipSlow = flag.Bool("skip-ablations", false, "skip A1-A3")
	)
	flag.Parse()

	// Interrupts cancel the in-flight experiment instead of killing the
	// process mid-table; once cancelled, the handler is released so a
	// second Ctrl-C terminates immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	cfg := eval.WorkloadConfig{GenomeLen: *genomeLen, Reads: *reads, ReadLen: *readLen,
		ErrorRate: *errRate, Seed: *seed, MaxPairs: *maxPairs}
	if *quick {
		cfg = eval.QuickWorkload()
	}

	fmt.Printf("building workload: %d bp genome, %d reads of ~%d bp at %.0f%% error...\n",
		cfg.GenomeLen, cfg.Reads, cfg.ReadLen, 100*cfg.ErrorRate)
	w, err := eval.BuildWorkload(cfg)
	die(err)
	fmt.Printf("candidate pairs: %d (%d query bases)\n\n", len(w.Pairs), w.TotalBases)

	die(ctx.Err()) // ctx-unaware experiment: honour a pending interrupt here
	t1, err := eval.E1MemoryFootprint(w)
	die(err)
	fmt.Println(t1.Format())

	die(ctx.Err()) // ctx-unaware experiment: honour a pending interrupt here
	t2, err := eval.E2MemoryAccesses(w)
	die(err)
	fmt.Println(t2.Format())

	t3, times, err := eval.E3CPU(ctx, w, *threads, *withSWG)
	die(err)
	fmt.Println(t3.Format())

	t4, err := eval.E4GPU(ctx, w, times)
	die(err)
	fmt.Println(t4.Format())

	t5, err := eval.E5Backend(ctx, w, *backend, *threads)
	die(err)
	fmt.Println(t5.Format())

	if *skipSlow {
		return
	}
	a1, err := eval.A1Ablation(ctx, w, *threads)
	die(err)
	fmt.Println(a1.Format())

	a2, err := eval.A2WindowSweep(ctx, w, *threads)
	die(err)
	fmt.Println(a2.Format())

	a3, err := eval.A3ShortReads(ctx, *threads)
	die(err)
	fmt.Println(a3.Format())

	die(ctx.Err()) // ctx-unaware experiment: honour a pending interrupt here
	a4, err := eval.A4Accuracy(w)
	die(err)
	fmt.Println(a4.Format())

	die(ctx.Err()) // ctx-unaware experiment: honour a pending interrupt here
	a5, err := eval.A5OccupancySweep(w)
	die(err)
	fmt.Println(a5.Format())

	die(ctx.Err()) // ctx-unaware experiment: honour a pending interrupt here
	a6, err := eval.A6Devices(w)
	die(err)
	fmt.Println(a6.Format())

	a7, err := eval.A7ThreadScaling(ctx, w, *threads)
	die(err)
	fmt.Println(a7.Format())
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genasm-eval:", err)
		os.Exit(1)
	}
}

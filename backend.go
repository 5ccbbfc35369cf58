package genasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/gpu"
	"genasm/internal/gpualign"
)

// cpuBackend pools per-goroutine aligners (the kernels keep scratch, so
// an aligner is single-goroutine; the pool amortizes construction across
// calls instead of rebuilding one per AlignBatch worker).
type cpuBackend struct {
	threads int
	pool    sync.Pool

	batches atomic.Uint64
	pairs   atomic.Uint64
}

func newCPUBackend(cfg Config, threads int) (*cpuBackend, error) {
	if _, err := newAligner(cfg); err != nil { // validate eagerly, once
		return nil, err
	}
	b := &cpuBackend{threads: threads}
	b.pool.New = func() any {
		a, err := newAligner(cfg)
		if err != nil {
			panic(err) // unreachable: cfg validated in newCPUBackend
		}
		return a
	}
	return b, nil
}

func (b *cpuBackend) Capabilities() Capabilities {
	// A few pairs per worker amortize pool churn and smooth out per-pair
	// length variance across the fan-out.
	return Capabilities{PreferredBatch: 4 * b.threads, Parallelism: b.threads}
}

func (b *cpuBackend) Stats() BackendStats {
	return BackendStats{Name: "cpu", Batches: b.batches.Load(), Pairs: b.pairs.Load()}
}

func (b *cpuBackend) AlignBatch(ctx context.Context, _ Config, pairs []Pair) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.batches.Add(1)
	b.pairs.Add(uint64(len(pairs)))
	if len(pairs) == 0 {
		return []Result{}, nil
	}
	threads := min(b.threads, len(pairs))
	results := make([]Result, len(pairs))
	if threads <= 1 {
		a := b.pool.Get().(*aligner)
		defer b.pool.Put(a)
		for i := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := a.Align(pairs[i].Query, pairs[i].Ref)
			if err != nil {
				return nil, fmt.Errorf("pair %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int, len(pairs))
	for i := range pairs {
		jobs <- i
	}
	close(jobs)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			a := b.pool.Get().(*aligner)
			defer b.pool.Put(a)
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[t] = err
					return
				}
				r, err := a.Align(pairs[i].Query, pairs[i].Ref)
				if err != nil {
					errs[t] = fmt.Errorf("pair %d: %w", i, err)
					cancel() // stop the other workers promptly
					return
				}
				results[i] = r
			}
		}(t)
	}
	wg.Wait()
	// Report a real alignment failure over a cancellation it triggered.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
			continue
		}
		return nil, err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return results, nil
}

// GPUStats reports one simulated device launch (one AlignBatch call, or
// one read's candidate batch under MapAlign). Every figure is per-launch,
// not cumulative across the engine's lifetime.
type GPUStats struct {
	// Device names the simulated device model (e.g. "NVIDIA RTX A6000").
	Device string `json:"device"`
	// Seconds is the modelled wall-clock time of the launch: MakespanCycles
	// divided by the device clock.
	Seconds float64 `json:"seconds"`
	// MakespanCycles is the modelled cycle count of the launch's critical
	// path (block schedule plus L2/DRAM bandwidth floors).
	MakespanCycles uint64 `json:"makespan_cycles"`
	// BlocksPerSM is the occupancy the launch ran at.
	BlocksPerSM int `json:"blocks_per_sm"`
	// SharedBlocks / SpilledBlocks count pairs (one pair = one thread
	// block) whose DP working set did / did not fit the block's
	// shared-memory allocation; spilled blocks pay the L2/DRAM path.
	SharedBlocks  int `json:"shared_blocks"`
	SpilledBlocks int `json:"spilled_blocks"`
	// PairsPerSecond is this launch's modelled throughput: the batch's
	// pair count divided by Seconds. It is zero for an empty launch.
	PairsPerSecond float64 `json:"pairs_per_second"`
}

// gpuBackend wraps the simulated-GPU batch path. A launch is monolithic
// (as a real device launch would be), so cancellation is honoured at
// launch boundaries, not within one.
type gpuBackend struct {
	gcfg gpualign.Config
	pen  cigar.AffinePenalties

	batches atomic.Uint64
	pairs   atomic.Uint64

	mu   sync.Mutex
	last GPUStats
	has  bool
}

func newGPUBackend(cfg Config) (*gpuBackend, error) {
	gcfg := gpualign.DefaultConfig(gpualign.Improved)
	switch cfg.Algorithm {
	case GenASM:
	case GenASMUnimproved:
		gcfg.Algorithm = gpualign.Unimproved
	default:
		return nil, fmt.Errorf("genasm: algorithm %q has no GPU kernel", cfg.Algorithm)
	}
	if cfg.DisableSENE || cfg.DisableDENT || cfg.DisableET {
		return nil, fmt.Errorf("genasm: ablation toggles are CPU-only")
	}
	gcfg.W, gcfg.O, gcfg.InitialK = cfg.WindowSize, cfg.Overlap, cfg.ErrorK
	gcfg.Device = gpu.A6000()
	// Validate the window geometry eagerly with a throwaway launch config
	// check: the same Config constructor the CPU path uses.
	if _, err := newAligner(Config{Algorithm: cfg.Algorithm, WindowSize: cfg.WindowSize,
		Overlap: cfg.Overlap, ErrorK: cfg.ErrorK}); err != nil {
		return nil, err
	}
	return &gpuBackend{gcfg: gcfg, pen: cfg.penalties()}, nil
}

func (b *gpuBackend) Capabilities() Capabilities {
	// One full wave of resident thread blocks (one pair per block) is the
	// launch size that saturates the device without queueing extra waves.
	wave := b.gcfg.Device.SMs * b.gcfg.TargetBlocksPerSM
	return Capabilities{PreferredBatch: wave, Parallelism: wave}
}

func (b *gpuBackend) Stats() BackendStats {
	st := BackendStats{Name: "gpu", Batches: b.batches.Load(), Pairs: b.pairs.Load()}
	b.mu.Lock()
	if b.has {
		last := b.last
		st.GPU = &last
	}
	b.mu.Unlock()
	return st
}

func (b *gpuBackend) AlignBatch(ctx context.Context, _ Config, pairs []Pair) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.batches.Add(1)
	b.pairs.Add(uint64(len(pairs)))
	jobs := make([]gpualign.Pair, len(pairs))
	for i, p := range pairs {
		jobs[i] = gpualign.Pair{Query: dna.EncodeSeq(p.Query), Ref: dna.EncodeSeq(p.Ref)}
	}
	batch, err := gpualign.AlignBatch(jobs, b.gcfg)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(pairs))
	for i, r := range batch.Results {
		results[i] = Result{
			Distance:    r.Distance,
			Score:       r.Cigar.AffineScore(b.pen),
			Cigar:       r.Cigar.String(),
			RefConsumed: r.RefConsumed,
		}
	}
	st := GPUStats{
		Device:         batch.Launch.Device,
		Seconds:        batch.Launch.Seconds,
		MakespanCycles: batch.Launch.MakespanCycles,
		BlocksPerSM:    batch.Launch.BlocksPerSM,
		SharedBlocks:   batch.SharedBlocks,
		SpilledBlocks:  batch.SpilledBlocks,
		PairsPerSecond: batch.Launch.Throughput(),
	}
	b.mu.Lock()
	b.last, b.has = st, true
	b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Package gpualign runs GenASM alignment kernels on the simulated GPU in
// internal/gpu, reproducing the paper's GPU experiments.
//
// Kernel mapping (as in the paper): one thread block aligns one
// (read, candidate reference) pair; within a block, the window's error
// levels advance in a warp-parallel wavefront; the window's DP working set
// lives in shared memory when it fits the block's allocation. The improved
// algorithm's working set (entry-only, banded, ET-trimmed) fits comfortably;
// the unimproved working set (four edge vectors, all k+1 rows) does not, so
// its DP traffic spills to the L2/DRAM hierarchy — the mechanism behind the
// paper's 5.9x improved-vs-unimproved GPU speedup.
package gpualign

import (
	"fmt"
	"sync"
	"sync/atomic"

	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/gpu"
	"genasm/internal/stats"
)

// Algorithm selects the kernel.
type Algorithm int

const (
	// Improved is GenASM with the paper's three improvements.
	Improved Algorithm = iota
	// Unimproved is MICRO'20 GenASM (edge storage, no ET, no banding).
	Unimproved
)

func (a Algorithm) String() string {
	if a == Unimproved {
		return "genasm-gpu-unimproved"
	}
	return "genasm-gpu-improved"
}

// Config describes a batch launch.
type Config struct {
	Device    gpu.DeviceConfig
	Algorithm Algorithm
	// Window geometry. Start from DefaultConfig: a zero geometry is
	// rejected, not defaulted.
	W, O, InitialK int
	// TargetBlocksPerSM sets the per-block shared-memory allocation to
	// SharedMemPerSM/TargetBlocksPerSM (default 8), trading occupancy
	// against capacity exactly like a CUDA launch configuration.
	TargetBlocksPerSM int
	// OpsPerEntry is the modelled warp-instruction cost of one DP entry
	// (default 16: shifts, ANDs, loads, stores, loop overhead).
	OpsPerEntry int
}

// DefaultConfig returns the paper's GPU configuration on the A6000 model,
// with the window geometry of core.DefaultConfig.
func DefaultConfig(algo Algorithm) Config {
	w := core.DefaultConfig()
	return Config{Device: gpu.A6000(), Algorithm: algo, W: w.W, O: w.O, InitialK: w.InitialK,
		TargetBlocksPerSM: 8, OpsPerEntry: 16}
}

// fillDefaults guards the launch-model fields the shared-memory budget
// divides by; the window geometry is validated by the kernels instead.
func (c *Config) fillDefaults() {
	if c.TargetBlocksPerSM <= 0 {
		c.TargetBlocksPerSM = 8
	}
	if c.OpsPerEntry <= 0 {
		c.OpsPerEntry = 16
	}
	if c.Device.SMs == 0 {
		c.Device = gpu.A6000()
	}
}

// Pair is one alignment job (base codes).
type Pair struct {
	Query, Ref []byte
}

// BatchResult is the outcome of a batch launch.
type BatchResult struct {
	// Results holds one alignment per input pair, bit-identical to the
	// corresponding CPU implementation's output.
	Results []core.Result
	// Launch is the simulated-device timing.
	Launch gpu.LaunchStats
	// SharedBlocks counts pairs whose every window's DP working set fit
	// the block's shared-memory allocation; SpilledBlocks counts pairs
	// with at least one window spilled to L2 (residency is per window,
	// since the table is reused window to window).
	SharedBlocks, SpilledBlocks int
	// Counters aggregates DP memory behaviour over the whole batch.
	Counters stats.Counters
}

// pairAligner is the method set *core.Aligner and *baseline.Aligner
// share, so one launch body drives either kernel.
type pairAligner interface {
	AlignEncoded(q, t []byte) (core.Result, error)
	SetCounters(c *stats.Counters)
}

// AlignBatch aligns every pair on the simulated device.
func AlignBatch(pairs []Pair, cfg Config) (BatchResult, error) {
	cfg.fillDefaults()
	dev, err := gpu.NewDevice(cfg.Device)
	if err != nil {
		return BatchResult{}, err
	}
	newAligner := func() (pairAligner, error) {
		if cfg.Algorithm == Unimproved {
			return baseline.New(baseline.Config{W: cfg.W, O: cfg.O, InitialK: cfg.InitialK})
		}
		return core.New(core.Config{W: cfg.W, O: cfg.O, InitialK: cfg.InitialK})
	}
	if _, err := newAligner(); err != nil { // validate config once, eagerly
		return BatchResult{}, err
	}

	pool := sync.Pool{New: func() any {
		a, err := newAligner()
		if err != nil {
			panic(err) // unreachable: validated above
		}
		return a
	}}

	sharedBudget := cfg.Device.SharedMemPerSM / cfg.TargetBlocksPerSM
	out := BatchResult{Results: make([]core.Result, len(pairs))}
	var sharedBlocks, spilledBlocks atomic.Int64
	var firstErr atomic.Value
	var ctrMu sync.Mutex

	launch, err := dev.Launch(len(pairs), sharedBudget, func(i int) gpu.BlockCost {
		al := pool.Get().(pairAligner)
		defer pool.Put(al)
		var c stats.Counters
		c.TrackWindows = true
		al.SetCounters(&c)
		res, err := al.AlignEncoded(pairs[i].Query, pairs[i].Ref)
		al.SetCounters(nil)
		if err != nil {
			firstErr.CompareAndSwap(nil, error(fmt.Errorf("gpualign: pair %d: %w", i, err)))
			return gpu.BlockCost{}
		}
		out.Results[i] = res

		entries := c.TableWrites
		if cfg.Algorithm == Unimproved {
			entries /= 4
		}
		avgRows := uint64(1)
		if c.Windows > 0 {
			avgRows = (c.RowsComputed + c.Windows - 1) / c.Windows
		}
		lanes := avgRows
		if lanes > uint64(cfg.Device.WarpSize) {
			lanes = uint64(cfg.Device.WarpSize)
		}
		if lanes < 1 {
			lanes = 1
		}
		bc := gpu.BlockCost{
			ALUCycles: entries * uint64(cfg.OpsPerEntry) / lanes,
			DRAMBytes: uint64(len(pairs[i].Query)+len(pairs[i].Ref)) + 32,
		}
		// Classify each window's DP traffic: the table is reused per
		// window, so residency is a per-window property. Word counts for
		// the bandwidth model come from byte traffic (banded entries are
		// packed sub-word stores).
		spilled := false
		for _, ws := range c.WindowStats {
			words := (ws.TrafficBytes + 7) / 8
			if int(ws.FootprintBits/8) <= sharedBudget {
				bc.SharedWords += words
				if int(ws.FootprintBits/8) > bc.SharedMemBytes {
					bc.SharedMemBytes = int(ws.FootprintBits / 8)
				}
			} else {
				bc.L2Words += words
				spilled = true
			}
		}
		if spilled {
			spilledBlocks.Add(1)
		} else {
			sharedBlocks.Add(1)
		}
		ctrMu.Lock()
		out.Counters.Merge(&c)
		ctrMu.Unlock()
		return bc
	})
	if err != nil {
		return BatchResult{}, err
	}
	if e := firstErr.Load(); e != nil {
		return BatchResult{}, e.(error)
	}
	out.Launch = launch
	out.SharedBlocks = int(sharedBlocks.Load())
	out.SpilledBlocks = int(spilledBlocks.Load())
	return out, nil
}

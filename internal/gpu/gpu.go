// Package gpu models the execution of data-parallel kernels on a SIMT GPU.
//
// Go has no CUDA path, so the paper's A6000 experiments run on this
// simulator instead (see docs/ARCHITECTURE.md). The model captures the
// two effects the paper's GPU results hinge on:
//
//  1. Capacity: each thread block declares how much fast per-SM shared
//     memory it needs. Blocks whose DP working set fits run out of shared
//     memory; blocks whose working set does not fit (unimproved GenASM)
//     push that traffic to the L2/DRAM hierarchy, and shared-memory
//     capacity also bounds how many blocks an SM can run concurrently
//     (occupancy).
//  2. Throughput: per-block cycles are accounted from instruction and
//     memory-access counts, blocks are scheduled across SM slots, and
//     device-wide L2/DRAM bandwidth floors bound the makespan.
//
// The kernel's real computation executes on the host (across CPU workers),
// so simulated kernels produce bit-exact functional results while the cost
// model produces the timing.
package gpu

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
)

// DeviceConfig describes the modelled GPU.
type DeviceConfig struct {
	Name     string
	SMs      int
	ClockGHz float64
	WarpSize int
	// SharedMemPerSM is the shared-memory capacity of one SM in bytes.
	SharedMemPerSM int
	// MaxBlocksPerSM caps occupancy regardless of shared-memory use.
	MaxBlocksPerSM int
	// SharedWordsPerCycle is the per-SM shared-memory throughput in
	// 64-bit words per cycle (banked, conflict-free assumption).
	SharedWordsPerCycle float64
	// L2CostPerWord is the amortized per-word cycle cost a block pays
	// for an L2 access (latency partially hidden by other warps).
	L2CostPerWord float64
	// L2BytesPerCycle is the device-wide L2 bandwidth.
	L2BytesPerCycle float64
	// DRAMBytesPerCycle is the device-wide DRAM bandwidth.
	DRAMBytesPerCycle float64
}

// A6000 approximates an NVIDIA RTX A6000 (GA102): 84 SMs at 1.41 GHz,
// 100 KiB usable shared memory per SM, ~6 MiB L2 at ~2 TB/s, ~768 GB/s
// DRAM. This is the paper's evaluation GPU.
func A6000() DeviceConfig {
	return DeviceConfig{
		Name:                "A6000-model",
		SMs:                 84,
		ClockGHz:            1.41,
		WarpSize:            32,
		SharedMemPerSM:      100 << 10,
		MaxBlocksPerSM:      16,
		SharedWordsPerCycle: 16,
		L2CostPerWord:       4,
		L2BytesPerCycle:     1400,
		DRAMBytesPerCycle:   540,
	}
}

// A100 approximates an NVIDIA A100-SXM (GA100): 108 SMs at 1.41 GHz,
// 164 KiB shared memory per SM, 40 MiB L2, ~1.6 TB/s HBM2.
func A100() DeviceConfig {
	return DeviceConfig{
		Name:                "A100-model",
		SMs:                 108,
		ClockGHz:            1.41,
		WarpSize:            32,
		SharedMemPerSM:      164 << 10,
		MaxBlocksPerSM:      32,
		SharedWordsPerCycle: 16,
		L2CostPerWord:       3,
		L2BytesPerCycle:     3000,
		DRAMBytesPerCycle:   1100,
	}
}

// LaptopGPU approximates a mobile mid-range part (e.g. an RTX 3060
// Laptop): 30 SMs, 100 KiB shared per SM, narrow memory system. Useful to
// study how the improvements behave when bandwidth is scarce.
func LaptopGPU() DeviceConfig {
	return DeviceConfig{
		Name:                "laptop-gpu-model",
		SMs:                 30,
		ClockGHz:            1.28,
		WarpSize:            32,
		SharedMemPerSM:      100 << 10,
		MaxBlocksPerSM:      16,
		SharedWordsPerCycle: 16,
		L2CostPerWord:       5,
		L2BytesPerCycle:     700,
		DRAMBytesPerCycle:   230,
	}
}

// Validate reports whether the configuration is usable.
func (c DeviceConfig) Validate() error {
	if c.SMs < 1 || c.WarpSize < 1 || c.MaxBlocksPerSM < 1 {
		return fmt.Errorf("gpu: invalid geometry %+v", c)
	}
	if c.ClockGHz <= 0 || c.SharedWordsPerCycle <= 0 ||
		c.L2BytesPerCycle <= 0 || c.DRAMBytesPerCycle <= 0 || c.L2CostPerWord < 0 {
		return fmt.Errorf("gpu: invalid rates %+v", c)
	}
	if c.SharedMemPerSM < 1 {
		return fmt.Errorf("gpu: no shared memory")
	}
	return nil
}

// BlockCost is one thread block's resource usage, reported by the kernel.
type BlockCost struct {
	// ALUCycles is the block's warp-instruction count.
	ALUCycles uint64
	// SharedWords counts 64-bit-word accesses served by shared memory.
	SharedWords uint64
	// L2Words counts word accesses that spilled past shared memory.
	L2Words uint64
	// DRAMBytes is streamed input/output traffic (sequences, results).
	DRAMBytes uint64
	// SharedMemBytes is the block's static shared-memory allocation,
	// which determines occupancy.
	SharedMemBytes int
}

// LaunchStats summarizes one simulated kernel launch.
type LaunchStats struct {
	Device         string
	Blocks         int
	BlocksPerSM    int
	Slots          int
	MakespanCycles uint64
	// ComputeCycles is the sum of all block cycle costs.
	ComputeCycles uint64
	// L2FloorCycles / DRAMFloorCycles are the device-wide bandwidth
	// bounds; the makespan is at least each of them.
	L2FloorCycles   uint64
	DRAMFloorCycles uint64
	TotalShared     uint64 // words
	TotalL2         uint64 // words
	TotalDRAM       uint64 // bytes
	Seconds         float64
}

// Throughput returns blocks per second.
func (s LaunchStats) Throughput() float64 {
	if s.Seconds == 0 {
		return 0
	}
	return float64(s.Blocks) / s.Seconds
}

// Device is a reusable simulated GPU.
type Device struct {
	cfg DeviceConfig
}

// NewDevice validates the configuration and returns a Device.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg}, nil
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// blockCycles converts a cost record into block-resident cycles.
func (d *Device) blockCycles(bc BlockCost) uint64 {
	c := float64(bc.ALUCycles)
	c += float64(bc.SharedWords) / d.cfg.SharedWordsPerCycle
	c += float64(bc.L2Words) * d.cfg.L2CostPerWord
	return uint64(c)
}

// Launch simulates running n thread blocks of kernel fn. fn is invoked once
// per block index (concurrently, across host CPU workers) and must perform
// the block's real work and return its cost. sharedPerBlock is the kernel's
// static shared-memory allocation per block, used for occupancy; blocks may
// report a larger dynamic SharedMemBytes, in which case the maximum governs
// a conservative re-check.
func (d *Device) Launch(n int, sharedPerBlock int, fn func(block int) BlockCost) (LaunchStats, error) {
	if n < 0 {
		return LaunchStats{}, fmt.Errorf("gpu: negative block count")
	}
	if sharedPerBlock > d.cfg.SharedMemPerSM {
		return LaunchStats{}, fmt.Errorf("gpu: block shared allocation %d exceeds SM capacity %d",
			sharedPerBlock, d.cfg.SharedMemPerSM)
	}
	costs := make([]BlockCost, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for i := range next {
				costs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	blocksPerSM := d.cfg.MaxBlocksPerSM
	if sharedPerBlock > 0 {
		if byShared := d.cfg.SharedMemPerSM / sharedPerBlock; byShared < blocksPerSM {
			blocksPerSM = byShared
		}
	}
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	slots := d.cfg.SMs * blocksPerSM

	st := LaunchStats{
		Device:      d.cfg.Name,
		Blocks:      n,
		BlocksPerSM: blocksPerSM,
		Slots:       slots,
	}
	// Greedy earliest-slot scheduling.
	h := make(slotHeap, slots)
	heap.Init(&h)
	for i := 0; i < n; i++ {
		bc := costs[i]
		cyc := d.blockCycles(bc)
		st.ComputeCycles += cyc
		st.TotalShared += bc.SharedWords
		st.TotalL2 += bc.L2Words
		st.TotalDRAM += bc.DRAMBytes
		end := h[0] + cyc
		h[0] = end
		heap.Fix(&h, 0)
		if end > st.MakespanCycles {
			st.MakespanCycles = end
		}
	}
	st.L2FloorCycles = uint64(float64(st.TotalL2*8) / d.cfg.L2BytesPerCycle)
	st.DRAMFloorCycles = uint64(float64(st.TotalDRAM) / d.cfg.DRAMBytesPerCycle)
	if st.L2FloorCycles > st.MakespanCycles {
		st.MakespanCycles = st.L2FloorCycles
	}
	if st.DRAMFloorCycles > st.MakespanCycles {
		st.MakespanCycles = st.DRAMFloorCycles
	}
	st.Seconds = float64(st.MakespanCycles) / (d.cfg.ClockGHz * 1e9)
	return st, nil
}

// slotHeap is a min-heap of slot finish times.
type slotHeap []uint64

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *slotHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Package stats provides lightweight instrumentation counters used to
// account for the memory behaviour of the alignment kernels.
//
// The paper's first two results (24x smaller memory footprint, 12x fewer
// memory accesses) are statements about the dynamic-programming working set,
// not about wall-clock time, so the kernels in internal/core and
// internal/baseline optionally report every DP-table read/write and the peak
// footprint through a Counters value. Counting is optional: kernels accept a
// nil *Counters and skip all accounting, so the hot paths stay branch-cheap.
package stats

import "fmt"

// Counters accumulates memory-behaviour statistics for one or more window
// alignments. The zero value is ready to use. Counters is not safe for
// concurrent use; give each goroutine its own value and Merge afterwards.
type Counters struct {
	// TableWrites is the number of word-sized stores into the stored DP
	// table (the traceback working set) during distance calculation.
	TableWrites uint64
	// TableReads is the number of word-sized loads from the stored DP
	// table during traceback.
	TableReads uint64
	// WriteBytes/ReadBytes are the same accesses in bytes: an access to
	// a banded entry moves its (2k+3)-bit band, (2k+3+7)/8 bytes; other
	// accesses move 64-bit words (a traceback read of a full multi-word
	// entry is charged the whole entry).
	WriteBytes uint64
	ReadBytes  uint64
	// FootprintBits is the number of DP-table bits the current attempt's
	// table holds. A window's footprint is the largest table any of its
	// attempts held; peak footprint across windows is tracked separately.
	FootprintBits uint64
	// PeakFootprintBits is the maximum per-window footprint observed.
	PeakFootprintBits uint64
	// TotalFootprintBits sums the per-window footprints; divided by
	// Windows it gives the typical working-set size per window.
	TotalFootprintBits uint64
	// Windows is the number of window alignments accounted.
	Windows uint64
	// Attempts is the number of distance calculations those windows ran:
	// one per window plus one per budget-doubling retry.
	Attempts uint64
	// RowsComputed and RowsSkipped count DC rows (error levels) computed
	// vs skipped by early termination. A row a retry keeps from the failed
	// attempt is computed, and counted, once.
	RowsComputed uint64
	RowsSkipped  uint64
	// TrackWindows, when set before aligning, records one WindowStat per
	// window (used by the GPU model to classify each window's DP traffic
	// as shared-memory-resident or spilled).
	TrackWindows bool
	WindowStats  []WindowStat

	winFootprint   uint64 // largest table of the current window's closed attempts
	winStartWrites uint64
	winStartReads  uint64
	winStartBytes  uint64
}

// WindowStat is the memory behaviour of a single window alignment.
type WindowStat struct {
	FootprintBits uint64
	Accesses      uint64
	TrafficBytes  uint64
}

// AddWrite records n DP-table stores of size bytes each.
func (c *Counters) AddWrite(n, bytes uint64) {
	if c != nil {
		c.TableWrites += n
		c.WriteBytes += n * bytes
	}
}

// AddRead records n DP-table loads of size bytes each.
func (c *Counters) AddRead(n, bytes uint64) {
	if c != nil {
		c.TableReads += n
		c.ReadBytes += n * bytes
	}
}

// AddFootprint records n bits of DP-table storage for the current window.
func (c *Counters) AddFootprint(n uint64) {
	if c != nil {
		c.FootprintBits += n
	}
}

// EndAttempt closes one distance calculation of the current window: its
// table size is folded into the window's footprint, and the next
// attempt's table starts at zero bits (a resumed table re-adds the rows it
// keeps, at its new entry size).
func (c *Counters) EndAttempt() {
	if c == nil {
		return
	}
	c.Attempts++
	c.winFootprint = max(c.winFootprint, c.FootprintBits)
	c.FootprintBits = 0
}

// EndWindow finalizes the footprint accounting for one window: the
// largest table the window held is folded into the peak and reset. With
// TrackWindows set, the window's footprint and access count are also
// recorded.
func (c *Counters) EndWindow() {
	if c == nil {
		return
	}
	c.Windows++
	fp := max(c.winFootprint, c.FootprintBits)
	if c.TrackWindows {
		c.WindowStats = append(c.WindowStats, WindowStat{
			FootprintBits: fp,
			Accesses:      (c.TableWrites - c.winStartWrites) + (c.TableReads - c.winStartReads),
			TrafficBytes:  c.TrafficBytes() - c.winStartBytes,
		})
		c.winStartWrites = c.TableWrites
		c.winStartReads = c.TableReads
		c.winStartBytes = c.TrafficBytes()
	}
	c.PeakFootprintBits = max(c.PeakFootprintBits, fp)
	c.TotalFootprintBits += fp
	c.FootprintBits, c.winFootprint = 0, 0
}

// MeanWindowFootprintBits returns the average per-window DP footprint.
func (c *Counters) MeanWindowFootprintBits() float64 {
	if c == nil || c.Windows == 0 {
		return 0
	}
	return float64(c.TotalFootprintBits) / float64(c.Windows)
}

// AddRows records DC row accounting: computed rows and ET-skipped rows.
func (c *Counters) AddRows(computed, skipped uint64) {
	if c != nil {
		c.RowsComputed += computed
		c.RowsSkipped += skipped
	}
}

// Accesses returns the total number of DP-table word accesses (reads+writes).
func (c *Counters) Accesses() uint64 {
	if c == nil {
		return 0
	}
	return c.TableReads + c.TableWrites
}

// TrafficBytes returns the total DP-table traffic in bytes.
func (c *Counters) TrafficBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.ReadBytes + c.WriteBytes
}

// Merge folds other into c. Peak footprints take the maximum; everything
// else is summed.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	c.TableWrites += other.TableWrites
	c.TableReads += other.TableReads
	c.Windows += other.Windows
	c.Attempts += other.Attempts
	c.RowsComputed += other.RowsComputed
	c.RowsSkipped += other.RowsSkipped
	c.TotalFootprintBits += other.TotalFootprintBits
	c.WriteBytes += other.WriteBytes
	c.ReadBytes += other.ReadBytes
	if other.PeakFootprintBits > c.PeakFootprintBits {
		c.PeakFootprintBits = other.PeakFootprintBits
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c != nil {
		*c = Counters{}
	}
}

// String returns a compact human-readable summary.
func (c *Counters) String() string {
	if c == nil {
		return "stats: disabled"
	}
	return fmt.Sprintf("windows=%d attempts=%d writes=%d reads=%d peakFootprint=%dbits rows=%d/%d skipped",
		c.Windows, c.Attempts, c.TableWrites, c.TableReads, c.PeakFootprintBits, c.RowsComputed, c.RowsComputed+c.RowsSkipped)
}

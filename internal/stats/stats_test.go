package stats

import (
	"strings"
	"testing"
)

func TestNilCountersAreSafe(t *testing.T) {
	var c *Counters
	c.AddWrite(1, 8)
	c.AddRead(1, 8)
	c.AddFootprint(1)
	c.AddRows(1, 1)
	c.EndWindow()
	c.Merge(&Counters{TableWrites: 5})
	c.Reset()
	if c.Accesses() != 0 {
		t.Fatal("nil counters should report zero accesses")
	}
	if got := c.String(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil String = %q", got)
	}
}

func TestFootprintPeak(t *testing.T) {
	var c Counters
	c.AddFootprint(100)
	c.EndWindow()
	c.AddFootprint(40)
	c.AddFootprint(20)
	c.EndWindow()
	if c.PeakFootprintBits != 100 {
		t.Fatalf("peak = %d want 100", c.PeakFootprintBits)
	}
	if c.Windows != 2 {
		t.Fatalf("windows = %d want 2", c.Windows)
	}
	if c.FootprintBits != 0 {
		t.Fatal("footprint not reset after EndWindow")
	}
}

func TestMergeAndAccesses(t *testing.T) {
	a := Counters{TableWrites: 3, TableReads: 2, PeakFootprintBits: 10, Windows: 1, RowsComputed: 4, RowsSkipped: 1}
	b := Counters{TableWrites: 1, TableReads: 7, PeakFootprintBits: 20, Windows: 2}
	a.Merge(&b)
	if a.TableWrites != 4 || a.TableReads != 9 || a.Windows != 3 {
		t.Fatalf("merge sums wrong: %+v", a)
	}
	if a.PeakFootprintBits != 20 {
		t.Fatalf("merge peak = %d want 20", a.PeakFootprintBits)
	}
	if a.Accesses() != 13 {
		t.Fatalf("accesses = %d want 13", a.Accesses())
	}
}

func TestReset(t *testing.T) {
	c := Counters{TableWrites: 1, TrackWindows: true}
	c.AddFootprint(3)
	c.EndWindow()
	c.Reset()
	if c.TableWrites != 0 || c.Windows != 0 || c.TrackWindows || c.WindowStats != nil {
		t.Fatalf("reset incomplete: %+v", c)
	}
}

func TestTrackWindows(t *testing.T) {
	var c Counters
	c.TrackWindows = true
	c.AddWrite(10, 4)
	c.AddFootprint(100)
	c.EndWindow()
	c.AddWrite(5, 4)
	c.AddRead(2, 4)
	c.AddFootprint(40)
	c.EndWindow()
	if len(c.WindowStats) != 2 {
		t.Fatalf("window stats %d want 2", len(c.WindowStats))
	}
	if c.WindowStats[0] != (WindowStat{FootprintBits: 100, Accesses: 10, TrafficBytes: 40}) {
		t.Fatalf("first window %+v", c.WindowStats[0])
	}
	if c.WindowStats[1] != (WindowStat{FootprintBits: 40, Accesses: 7, TrafficBytes: 28}) {
		t.Fatalf("second window %+v", c.WindowStats[1])
	}
}

func TestNoTrackWindowsKeepsNoStats(t *testing.T) {
	var c Counters
	c.AddWrite(10, 8)
	c.EndWindow()
	if c.WindowStats != nil {
		t.Fatal("window stats recorded without TrackWindows")
	}
}

func TestStringContainsFields(t *testing.T) {
	c := Counters{Windows: 2, TableWrites: 3, TableReads: 4, PeakFootprintBits: 5, RowsComputed: 6, RowsSkipped: 1}
	s := c.String()
	for _, want := range []string{"windows=2", "writes=3", "reads=4", "5bits", "6/7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// TestAttemptsFoldIntoOneWindow pins the attempt/window split: a window
// retried at a larger budget counts once in Windows, once per try in
// Attempts, and its footprint is the largest table any attempt held.
func TestAttemptsFoldIntoOneWindow(t *testing.T) {
	c := Counters{TrackWindows: true}
	c.AddWrite(10, 8)
	c.AddFootprint(300)
	c.EndAttempt()
	c.AddFootprint(200) // a resumed table smaller than the first attempt's
	c.AddWrite(5, 8)
	c.EndAttempt()
	c.EndWindow()
	c.AddFootprint(50)
	c.EndAttempt()
	c.EndWindow()
	if c.Windows != 2 || c.Attempts != 3 {
		t.Fatalf("windows=%d attempts=%d want 2, 3", c.Windows, c.Attempts)
	}
	if c.PeakFootprintBits != 300 || c.TotalFootprintBits != 350 {
		t.Fatalf("peak=%d total=%d want 300, 350", c.PeakFootprintBits, c.TotalFootprintBits)
	}
	if want := (WindowStat{FootprintBits: 300, Accesses: 15, TrafficBytes: 120}); c.WindowStats[0] != want {
		t.Fatalf("first window %+v want %+v", c.WindowStats[0], want)
	}
	var m Counters
	m.Merge(&c)
	if m.Attempts != 3 || !strings.Contains(m.String(), "attempts=3") {
		t.Fatalf("merged %+v: %s", m, m.String())
	}
}

package eval

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

func quick(t *testing.T) *Workload {
	t.Helper()
	w, err := BuildWorkload(QuickWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorkloadShape(t *testing.T) {
	w := quick(t)
	if len(w.Pairs) < len(w.Reads)/2 {
		t.Fatalf("only %d pairs from %d reads", len(w.Pairs), len(w.Reads))
	}
	for i, p := range w.Pairs {
		if len(p.Query) == 0 || len(p.Ref) == 0 {
			t.Fatalf("pair %d empty", i)
		}
		for _, b := range p.Query {
			if b > 4 {
				t.Fatalf("pair %d query not base codes", i)
			}
		}
	}
	if w.TotalBases == 0 {
		t.Fatal("no bases counted")
	}
}

func TestBuildWorkloadMaxPairs(t *testing.T) {
	cfg := QuickWorkload()
	cfg.MaxPairs = 5
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Pairs) != 5 {
		t.Fatalf("pairs %d want 5", len(w.Pairs))
	}
}

func TestE1FootprintShape(t *testing.T) {
	w := quick(t)
	tab, err := E1MemoryFootprint(w)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.Format()
	if !strings.Contains(s, "E1") || len(tab.Rows) != 3 {
		t.Fatalf("table %s", s)
	}
	// The reduction row must report a factor well above 1.
	if !strings.Contains(tab.Rows[2][1], "x") {
		t.Fatalf("no ratio: %v", tab.Rows[2])
	}
	ratio := parseRatio(t, tab.Rows[2][1])
	if ratio < 5 {
		t.Fatalf("footprint reduction %.1fx, want >=5x (paper: 24x)", ratio)
	}
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cannot parse ratio %q: %v", s, err)
	}
	return v
}

func TestE2AccessesShape(t *testing.T) {
	w := quick(t)
	tab, err := E2MemoryAccesses(w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := parseRatio(t, tab.Rows[2][3])
	if ratio < 3 {
		t.Fatalf("access reduction %.1fx, want >=3x (paper: 12x)", ratio)
	}
}

func TestE3AndE4RunAndOrder(t *testing.T) {
	cfg := QuickWorkload()
	cfg.Reads, cfg.ReadLen, cfg.MaxPairs = 10, 1500, 12
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, times, err := E3CPU(context.Background(), w, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Paper's ordering: improved GenASM beats KSW2 decisively.
	if times["GenASM-improved"] >= times["KSW2"] {
		t.Fatalf("improved (%v) not faster than KSW2 (%v)", times["GenASM-improved"], times["KSW2"])
	}
	g, err := E4GPU(context.Background(), w, times)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) < 4 {
		t.Fatalf("gpu rows %d", len(g.Rows))
	}
	if !strings.Contains(g.Format(), "shared memory") {
		t.Fatal("missing shared-memory note")
	}
}

func TestA1AblationRuns(t *testing.T) {
	cfg := QuickWorkload()
	cfg.MaxPairs = 8
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := A1Ablation(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d want 5", len(tab.Rows))
	}
}

func TestA2SweepRuns(t *testing.T) {
	cfg := QuickWorkload()
	cfg.MaxPairs = 6
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := A2WindowSweep(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := tab.Format()
	for _, want := range []string{"== T: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("format %q missing %q", s, want)
		}
	}
}

func TestE5BackendRuns(t *testing.T) {
	cfg := QuickWorkload()
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := E5Backend(context.Background(), w, "multi(cpu,gpu)", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "cpu" || tab.Rows[1][0] != "multi(cpu,gpu)" {
		t.Fatalf("rows %v", tab.Rows)
	}
	found := false
	for _, n := range tab.Notes {
		found = found || strings.Contains(n, "shards")
	}
	if !found {
		t.Fatalf("composite run produced no shard note: %v", tab.Notes)
	}
	if _, err := E5Backend(context.Background(), w, "tpu", 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestA3ShortReadsRuns smoke-runs the short-read CPU comparison: one row
// per CPU aligner, each with a positive, finite measured rate (pairs/s
// is computed from the unrounded elapsed time, so it is positive and
// finite exactly when the time is).
func TestA3ShortReadsRuns(t *testing.T) {
	tab, err := A3ShortReads(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "A3" {
		t.Fatalf("ID %q, want A3", tab.ID)
	}
	aligners := CPUAligners(false)
	if len(tab.Rows) != len(aligners) {
		t.Fatalf("rows %d, want one per CPU aligner (%d)", len(tab.Rows), len(aligners))
	}
	for i, row := range tab.Rows {
		if row[0] != aligners[i].Name {
			t.Fatalf("row %d is %q, want %q", i, row[0], aligners[i].Name)
		}
		rate, err := strconv.ParseFloat(row[2], 64)
		if err != nil || rate <= 0 || math.IsInf(rate, 0) {
			t.Fatalf("%s: pairs/s %q is not a positive finite rate", row[0], row[2])
		}
	}
}

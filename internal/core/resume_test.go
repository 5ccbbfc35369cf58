package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"genasm/internal/stats"
)

// budgets returns the error budgets alignWindow tries on an m-base window
// with distance d: InitialK, doubled up to m, until one reaches d.
func budgets(cfg Config, m, d int) []int {
	ks := []int{min(cfg.InitialK, m)}
	for k := ks[0]; k < d; ks = append(ks, k) {
		k = min(2*k, m)
	}
	return ks
}

// packedAt reports whether an m-base window's table is packed at budget k.
func packedAt(cfg Config, m, k int) bool {
	t := table{m: m}
	t.layout(k, cfg)
	return t.packed
}

// chargedRows is the number of rows a window solved at budgets ks, whose
// final table holds final rows, computes: a retry keeps the k+1 rows of
// the failed attempt unless that attempt's table was packed.
func chargedRows(cfg Config, m int, ks []int, final int) uint64 {
	var charged, held int
	for i, k := range ks {
		if i > 0 && packedAt(cfg, m, ks[i-1]) {
			held = 0
		}
		rows := k + 1
		if i == len(ks)-1 {
			rows = final
		}
		charged += rows - held
		held = rows
	}
	return uint64(charged)
}

// TestResumeMatchesRestart pins resume against restart: a window whose
// budget doubles keeps the rows its failed attempts computed, and must
// return the WindowResult a fresh attempt at its final budget returns,
// byte for byte, for both word widths, every ablation and every layout a
// budget walks through (banded, packed, unbanded, edge). Each computed
// row is charged once, traceback reads what the fresh attempt reads, and
// only a packed table restarts.
func TestResumeMatchesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, w := range []int{16, 64, 65, 128, 200} {
		for _, k0 := range []int{1, 3, 12} {
			for _, cfg := range ablations(Config{W: w, O: 0, InitialK: k0}) {
				for _, rate := range []float64{0, 0.05, 0.15, 0.3, 0.45, 0.6} {
					p := randCodes(rng, w)
					tx := mutateCodes(rng, p, rate)
					tx = append(tx, randCodes(rng, rng.Intn(w/4+8))...)
					checkResume(t, cfg, p, tx)
				}
			}
		}
	}
}

// TestResumeMultiwordLayouts pins the two multi-word transitions by name:
// a packed table (W=200 from k=12) restarts at every doubling, and an
// unpacked one (W=128 at k=48, banded, to k=96, unbanded) resumes.
func TestResumeMultiwordLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, tc := range []struct {
		name     string
		w, k0    int
		rate     float64
		attempts uint64
		resumed  bool
	}{
		{"packed-restarts/W=200,k=12", 200, 12, 0.6, 4, false},
		{"unpacked-resumes/W=128,k=48", 128, 48, 0.6, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{W: tc.w, InitialK: tc.k0}
			var p, tx []byte
			for try := 0; ; try++ {
				if try == 100 {
					t.Fatalf("no window needing %d attempts in %d tries", tc.attempts, try)
				}
				p = randCodes(rng, tc.w)
				tx = mutateCodes(rng, p, tc.rate)
				d := windowDistance(t, cfg, p, tx)
				if uint64(len(budgets(cfg, tc.w, d))) == tc.attempts {
					break
				}
			}
			ctr, fresh := checkResume(t, cfg, p, tx)
			if ctr.Attempts != tc.attempts {
				t.Fatalf("attempts %d want %d", ctr.Attempts, tc.attempts)
			}
			if resumed := ctr.RowsComputed == fresh.RowsComputed; resumed != tc.resumed {
				t.Fatalf("rows computed %d, a fresh attempt %d: resumed=%v want %v",
					ctr.RowsComputed, fresh.RowsComputed, resumed, tc.resumed)
			}
		})
	}
}

func windowDistance(t *testing.T, cfg Config, p, tx []byte) int {
	t.Helper()
	wa := windowAligner{cfg: cfg}
	wr, err := wa.alignWindow(p, tx)
	if err != nil {
		t.Fatal(err)
	}
	return wr.Distance
}

// checkResume aligns one window with budget doubling and compares it with
// a fresh attempt at the final budget. It returns both counters.
func checkResume(t *testing.T, cfg Config, p, tx []byte) (ctr, fresh stats.Counters) {
	t.Helper()
	m := len(p)
	where := fmt.Sprintf("cfg %+v m=%d n=%d", cfg, m, len(tx))
	wa := windowAligner{cfg: cfg, counters: &ctr}
	got, err := wa.alignWindow(p, tx)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	ks := budgets(cfg, m, got.Distance)
	k := ks[len(ks)-1]

	fa := windowAligner{cfg: cfg, counters: &fresh}
	fa.load(p, tx, m <= 64)
	want, ok, err := fa.attempt(k, false)
	fresh.EndWindow()
	switch {
	case err != nil || !ok:
		t.Fatalf("%s: fresh attempt at k=%d: ok=%v err=%v", where, k, ok, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s budgets %v: resumed %+v, fresh at k=%d %+v", where, ks, got, k, want)
	case ctr.Windows != 1 || ctr.Attempts != uint64(len(ks)):
		t.Fatalf("%s budgets %v: windows=%d attempts=%d", where, ks, ctr.Windows, ctr.Attempts)
	case ctr.TableReads != fresh.TableReads || ctr.ReadBytes != fresh.ReadBytes:
		t.Fatalf("%s budgets %v: traceback read %d/%dB, fresh %d/%dB",
			where, ks, ctr.TableReads, ctr.ReadBytes, fresh.TableReads, fresh.ReadBytes)
	}
	if want := chargedRows(cfg, m, ks, int(fresh.RowsComputed)); ctr.RowsComputed != want {
		t.Fatalf("%s budgets %v: %d rows charged, want %d", where, ks, ctr.RowsComputed, want)
	}
	if ctr.RowsSkipped != fresh.RowsSkipped {
		t.Fatalf("%s budgets %v: %d rows skipped, fresh %d", where, ks, ctr.RowsSkipped, fresh.RowsSkipped)
	}
	return ctr, fresh
}

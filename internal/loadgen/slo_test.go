package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestParseSLO(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload string
		wantErr string
	}{
		{
			name:    "valid",
			payload: `{"scenarios": {"baseline": {"max_p99_ms": 250, "max_error_rate": 0}}}`,
		},
		{
			name:    "empty",
			payload: `{"scenarios": {}}`,
			wantErr: "no scenarios",
		},
		{
			name:    "unknown scenario",
			payload: `{"scenarios": {"basline": {"max_p99_ms": 250}}}`,
			wantErr: "unknown scenario",
		},
		{
			name:    "typoed ceiling",
			payload: `{"scenarios": {"baseline": {"max_p99ms": 250}}}`,
			wantErr: "unknown field",
		},
		{
			name:    "not json",
			payload: `ceilings: yes`,
			wantErr: "parsing SLO file",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSLO([]byte(tc.payload))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadSLO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, []byte(`{"scenarios": {"stress": {"max_error_rate": 0.01}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := LoadSLO(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenarios["stress"].MaxErrorRate == nil {
		t.Fatal("ceiling not loaded")
	}
	if _, err := LoadSLO(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestSLOCheck(t *testing.T) {
	good := &Result{Scenario: ScenarioBaseline, Requests: 100, Errors: 0, Status429: 0, P99ms: 40, AchievedRPS: 24}
	bad := &Result{Scenario: ScenarioStress, Requests: 100, Errors: 5, Status429: 40, P99ms: 900, AchievedRPS: 50}
	empty := &Result{Scenario: ScenarioMixed}

	t.Run("pass", func(t *testing.T) {
		f := SLOFile{Scenarios: map[string]SLO{
			ScenarioBaseline: {MaxP99ms: f64(250), MaxErrorRate: f64(0), MinAchievedRPS: f64(10)},
		}}
		if v := f.Check([]*Result{good, bad}); len(v) != 0 {
			t.Fatalf("unexpected violations: %v", v)
		}
	})

	t.Run("every rule fires", func(t *testing.T) {
		f := SLOFile{Scenarios: map[string]SLO{
			ScenarioStress: {MaxP99ms: f64(250), MaxErrorRate: f64(0.01), Max429Rate: f64(0.1), MinAchievedRPS: f64(100)},
		}}
		v := f.Check([]*Result{bad})
		rules := make([]string, len(v))
		for i, viol := range v {
			rules[i] = viol.Rule
		}
		want := []string{"achieved_rps_below_min", "error_rate", "p99_ms", "rate_429"}
		if strings.Join(rules, ",") != strings.Join(want, ",") {
			t.Fatalf("rules %v, want %v (sorted)", rules, want)
		}
	})

	t.Run("explicit zero is a real ceiling", func(t *testing.T) {
		f := SLOFile{Scenarios: map[string]SLO{
			ScenarioStress: {MaxErrorRate: f64(0)},
		}}
		if v := f.Check([]*Result{bad}); len(v) != 1 || v[0].Rule != "error_rate" {
			t.Fatalf("violations %v, want one error_rate", v)
		}
	})

	t.Run("named but not run", func(t *testing.T) {
		f := SLOFile{Scenarios: map[string]SLO{ScenarioChurn: {MaxP99ms: f64(250)}}}
		v := f.Check([]*Result{good})
		if len(v) != 1 || v[0].Rule != "scenario_not_run" {
			t.Fatalf("violations %v, want one scenario_not_run", v)
		}
	})

	t.Run("ran but measured nothing", func(t *testing.T) {
		f := SLOFile{Scenarios: map[string]SLO{ScenarioMixed: {MaxP99ms: f64(250)}}}
		v := f.Check([]*Result{empty})
		if len(v) != 1 || v[0].Rule != "no_requests_measured" {
			t.Fatalf("violations %v, want one no_requests_measured", v)
		}
	})
}

func TestResultRates(t *testing.T) {
	r := &Result{Requests: 200, Errors: 4, Status429: 30}
	if got := r.ErrorRate(); got != 0.02 {
		t.Fatalf("ErrorRate = %v", got)
	}
	if got := r.Rate429(); got != 0.15 {
		t.Fatalf("Rate429 = %v", got)
	}
	zero := &Result{}
	if zero.ErrorRate() != 0 || zero.Rate429() != 0 {
		t.Fatal("zero-request rates must be 0")
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genasm/internal/loadgen"
	"genasm/server"
)

func TestScenarioList(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{in: "all", want: loadgen.Scenarios()},
		{in: "", want: loadgen.Scenarios()},
		{in: "baseline", want: []string{"baseline"}},
		{in: "stress, mixed", want: []string{"stress", "mixed"}},
		{in: "baseline,nope", wantErr: true},
		{in: ",", wantErr: true},
	} {
		got, err := scenarioList(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("scenarioList(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("scenarioList(%q): %v", tc.in, err)
			continue
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("scenarioList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func cliServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func cliOptions(url string) options {
	o := defaultOptions()
	o.url = url
	o.scenarios = "baseline"
	o.warmup = 200 * time.Millisecond
	o.duration = 600 * time.Millisecond
	o.genomeLen = 20_000
	return o
}

// TestRunEndToEnd drives the full CLI path — scenario run, printed
// per-scenario report, SLO gate — against an in-process server.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	ts := cliServer(t)
	dir := t.TempDir()

	t.Run("passes generous SLO and writes report", func(t *testing.T) {
		o := cliOptions(ts.URL)
		o.sloPath = filepath.Join(dir, "slo.json")
		slo := `{"scenarios": {"baseline": {"max_p99_ms": 60000, "max_error_rate": 0}}}`
		if err := os.WriteFile(o.sloPath, []byte(slo), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(context.Background(), o, &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "all ceilings held") {
			t.Fatalf("missing SLO pass line:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "baseline  rps ") {
			t.Fatalf("missing baseline report line:\n%s", out.String())
		}
	})

	t.Run("impossible ceiling violates", func(t *testing.T) {
		o := cliOptions(ts.URL)
		o.sloPath = filepath.Join(dir, "impossible.json")
		slo := `{"scenarios": {"baseline": {"max_p99_ms": 0.000001}}}`
		if err := os.WriteFile(o.sloPath, []byte(slo), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), o, &out)
		if !errors.Is(err, errSLOViolated) {
			t.Fatalf("err = %v, want errSLOViolated\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "SLO VIOLATION") {
			t.Fatalf("violation not printed:\n%s", out.String())
		}
	})

	t.Run("SLO naming unrun scenario violates", func(t *testing.T) {
		o := cliOptions(ts.URL)
		o.sloPath = filepath.Join(dir, "unrun.json")
		slo := `{"scenarios": {"stress": {"max_p99_ms": 60000}}}`
		if err := os.WriteFile(o.sloPath, []byte(slo), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), o, &out)
		if !errors.Is(err, errSLOViolated) {
			t.Fatalf("err = %v, want errSLOViolated (scenario_not_run)", err)
		}
		if !strings.Contains(out.String(), "scenario_not_run") {
			t.Fatalf("missing scenario_not_run violation:\n%s", out.String())
		}
	})
}

func TestRunBadInputs(t *testing.T) {
	o := cliOptions("http://127.0.0.1:0")
	o.scenarios = "nope"
	if err := run(context.Background(), o, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
	o = cliOptions("http://127.0.0.1:0")
	o.sloPath = filepath.Join(t.TempDir(), "absent.json")
	if err := run(context.Background(), o, &bytes.Buffer{}); err == nil {
		t.Fatal("missing SLO file did not error")
	}
}

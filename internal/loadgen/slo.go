package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SLO declares per-scenario ceilings. Every field is optional (nil =
// unchecked), so an SLO file only constrains what it names — and an
// explicit 0 is a real ceiling ("no errors at all"), distinct from
// absent.
type SLO struct {
	// MaxP99ms caps the client-side p99 latency in milliseconds.
	MaxP99ms *float64 `json:"max_p99_ms,omitempty"`
	// MaxErrorRate caps Errors/Requests (429s never count as errors).
	MaxErrorRate *float64 `json:"max_error_rate,omitempty"`
	// Max429Rate caps Status429/Requests — backpressure is expected
	// under stress but an SLO can still bound it.
	Max429Rate *float64 `json:"max_429_rate,omitempty"`
	// MinAchievedRPS floors the measured throughput.
	MinAchievedRPS *float64 `json:"min_achieved_rps,omitempty"`
}

// SLOFile maps scenario names to their ceilings. A scenario named in
// the file but missing from the results is itself a violation, so a
// gate cannot silently pass by not running a scenario.
type SLOFile struct {
	Scenarios map[string]SLO `json:"scenarios"`
}

// ParseSLO decodes an SLO file payload, rejecting unknown fields so a
// typoed ceiling cannot silently gate nothing.
func ParseSLO(data []byte) (SLOFile, error) {
	var f SLOFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("loadgen: parsing SLO file: %w", err)
	}
	if len(f.Scenarios) == 0 {
		return f, fmt.Errorf("loadgen: SLO file declares no scenarios")
	}
	for name := range f.Scenarios {
		if !validScenario(name) {
			return f, fmt.Errorf("loadgen: SLO file names unknown scenario %q", name)
		}
	}
	return f, nil
}

// LoadSLO reads and parses an SLO file from disk.
func LoadSLO(path string) (SLOFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SLOFile{}, err
	}
	return ParseSLO(data)
}

func validScenario(name string) bool {
	for _, s := range Scenarios() {
		if s == name {
			return true
		}
	}
	return false
}

// Violation is one broken ceiling.
type Violation struct {
	Scenario string  `json:"scenario"`
	Rule     string  `json:"rule"`
	Limit    float64 `json:"limit"`
	Actual   float64 `json:"actual"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s %.4g exceeds limit %.4g", v.Scenario, v.Rule, v.Actual, v.Limit)
}

// Check evaluates results against the file's ceilings and returns every
// violation, sorted for stable output. Scenarios the file does not name
// are unconstrained; scenarios it names but the results lack are
// violations.
func (f SLOFile) Check(results []*Result) []Violation {
	byName := make(map[string]*Result, len(results))
	for _, r := range results {
		byName[r.Scenario] = r
	}
	var out []Violation
	for name, slo := range f.Scenarios {
		r, ok := byName[name]
		if !ok {
			out = append(out, Violation{Scenario: name, Rule: "scenario_not_run", Limit: 1, Actual: 0})
			continue
		}
		if r.Requests == 0 {
			out = append(out, Violation{Scenario: name, Rule: "no_requests_measured", Limit: 1, Actual: 0})
			continue
		}
		if slo.MaxP99ms != nil && r.P99ms > *slo.MaxP99ms {
			out = append(out, Violation{Scenario: name, Rule: "p99_ms", Limit: *slo.MaxP99ms, Actual: r.P99ms})
		}
		if slo.MaxErrorRate != nil && r.ErrorRate() > *slo.MaxErrorRate {
			out = append(out, Violation{Scenario: name, Rule: "error_rate", Limit: *slo.MaxErrorRate, Actual: r.ErrorRate()})
		}
		if slo.Max429Rate != nil && r.Rate429() > *slo.Max429Rate {
			out = append(out, Violation{Scenario: name, Rule: "rate_429", Limit: *slo.Max429Rate, Actual: r.Rate429()})
		}
		if slo.MinAchievedRPS != nil && r.AchievedRPS < *slo.MinAchievedRPS {
			out = append(out, Violation{Scenario: name, Rule: "achieved_rps_below_min", Limit: *slo.MinAchievedRPS, Actual: r.AchievedRPS})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scenario != out[j].Scenario {
			return out[i].Scenario < out[j].Scenario
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

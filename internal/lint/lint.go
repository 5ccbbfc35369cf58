// Package lint is genasm's project-specific static-analysis framework:
// a small, stdlib-only analyzer harness (go/parser + go/ast + go/types,
// stdlib type information via the source importer) plus the six
// analyzers that machine-check the invariants this repository's
// correctness and performance work depends on:
//
//   - hotalloc: no hidden allocation inside loops of the designated
//     hot-path packages (the bit-parallel alignment kernels).
//   - ctxflow:  library code never mints context.Background()/TODO();
//     a function that holds a ctx threads it to callees.
//   - errcmp:   sentinel errors are matched with errors.Is, and
//     fmt.Errorf wraps causes with %w.
//   - locksafe: no by-value copies of lock-containing structs, and no
//     channel sends while a sync.Mutex/RWMutex is held.
//   - metricname: metric names registered through internal/obs follow
//     the exposition conventions (snake_case, counters end in _total).
//   - httpclient: library code builds bounded, context-aware HTTP
//     clients — no zero-Timeout http.Client, no http.Get/DefaultClient
//     helpers, no http.NewRequest without a context.
//
// Findings carry file:line positions. A finding that is intentional is
// suppressed in place with a written justification:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. A directive
// without a reason, or naming an unknown analyzer, is itself a finding,
// so suppressions cannot rot silently. The cmd/genasm-lint driver runs
// every analyzer over every package in the module and exits non-zero on
// any unsuppressed finding; see docs/LINTING.md for the policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Pkg    *Package
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: "", // filled by Run
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllowDirective is the in-source suppression syntax:
//
//	//lint:allow <analyzer> <reason>
//
// It silences findings of the named analyzer on its own line and on the
// line directly below (so it can sit above the flagged statement).
const AllowDirective = "//lint:allow"

var directiveRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_-]+)(?:\s+(\S.*))?$`)

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
}

// collectDirectives extracts every //lint:allow directive from a file.
// Malformed directives (no reason) and, when known is non-nil,
// directives naming an unknown analyzer are reported as findings of the
// pseudo-analyzer "lint" via report.
func collectDirectives(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) []directive {
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, AllowDirective) {
				continue
			}
			pos := fset.Position(c.Pos())
			m := directiveRe.FindStringSubmatch(text)
			if m == nil {
				report(Diagnostic{Pos: pos, Analyzer: "lint",
					Message: "malformed " + AllowDirective + " directive: want \"//lint:allow <analyzer> <reason>\""})
				continue
			}
			name, reason := m[1], strings.TrimSpace(m[2])
			if reason == "" {
				report(Diagnostic{Pos: pos, Analyzer: "lint",
					Message: fmt.Sprintf("%s %s: a suppression must state a reason", AllowDirective, name)})
				continue
			}
			if known != nil && !known[name] {
				report(Diagnostic{Pos: pos, Analyzer: "lint",
					Message: fmt.Sprintf("%s names unknown analyzer %q", AllowDirective, name)})
				continue
			}
			ds = append(ds, directive{pos: pos, analyzer: name, reason: reason})
		}
	}
	return ds
}

// suppressed reports whether d is covered by a directive: same file,
// matching analyzer, on d's line or the line directly above it.
func suppressed(d Diagnostic, dirs []directive) bool {
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer {
			continue
		}
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// Run executes every analyzer over every package and returns the
// unsuppressed findings, sorted by position. Directive hygiene findings
// (malformed or unknown-analyzer //lint:allow comments) are included.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			name := a.Name
			pass := &Pass{Pkg: pkg, report: func(d Diagnostic) {
				d.Analyzer = name
				raw = append(raw, d)
			}}
			a.Run(pass)
		}
		var dirs []directive
		for _, f := range pkg.Files {
			dirs = append(dirs, collectDirectives(pkg.Fset, f, known, func(d Diagnostic) {
				out = append(out, d)
			})...)
		}
		for _, d := range raw {
			if !suppressed(d, dirs) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// HotPathPackages is the designated allocation-free zone: the
// bit-parallel kernel packages whose inner loops are the paper's
// contribution. hotalloc runs only here (ROADMAP item 1 pins the
// steady-state allocation behaviour of these packages).
var HotPathPackages = []string{
	"genasm/internal/core",
	"genasm/internal/dna",
}

// Default returns the standard genasm analyzer suite, with hotalloc
// scoped to hotPkgs (nil means HotPathPackages).
func Default(hotPkgs []string) []*Analyzer {
	if hotPkgs == nil {
		hotPkgs = HotPathPackages
	}
	return []*Analyzer{
		HotAlloc(hotPkgs),
		CtxFlow(),
		ErrCmp(),
		LockSafe(),
		MetricName(),
		HTTPClient(),
	}
}

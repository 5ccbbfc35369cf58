package genasm

import (
	"errors"
	"fmt"

	"genasm/internal/baseline"
	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/edlib"
	"genasm/internal/ksw2"
	"genasm/internal/swg"
)

// Algorithm selects an aligner implementation.
type Algorithm string

const (
	// GenASM is the paper's improved GenASM (default).
	GenASM Algorithm = "genasm"
	// GenASMUnimproved is MICRO'20 GenASM without the improvements.
	GenASMUnimproved Algorithm = "genasm-unimproved"
	// Edlib is the Myers bit-parallel global edit-distance aligner.
	Edlib Algorithm = "edlib"
	// KSW2 is the banded global affine-gap aligner.
	KSW2 Algorithm = "ksw2"
	// SWG is the quadratic Smith-Waterman-Gotoh reference.
	SWG Algorithm = "swg"
)

// Algorithms lists every supported Algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{GenASM, GenASMUnimproved, Edlib, KSW2, SWG}
}

// Config configures an Engine (see WithConfig). The zero value selects
// improved GenASM with the paper's parameters (core.DefaultConfig).
type Config struct {
	Algorithm Algorithm
	// GenASM window geometry (GenASM algorithms only). Zero values take
	// the paper defaults.
	WindowSize int
	Overlap    int
	ErrorK     int
	// Improvement toggles for ablation (improved GenASM only).
	DisableSENE, DisableDENT, DisableET bool
	// Affine-gap scoring (KSW2 and SWG only): match bonus, mismatch /
	// gap-open / gap-extend penalties. Zero takes minimap2 defaults
	// (2/4/4/2).
	MatchScore, MismatchPenalty, GapOpen, GapExtend int
	// BandWidth bounds the KSW2 band (0 = minimap2's 500).
	BandWidth int
}

// fillDefaults takes the window geometry from core.DefaultConfig and the
// scoring and band from ksw2.DefaultParams; the overlap default applies
// only to the default window size, and k never exceeds the window.
func (c *Config) fillDefaults() {
	if c.Algorithm == "" {
		c.Algorithm = GenASM
	}
	def := core.DefaultConfig()
	if c.WindowSize == 0 {
		c.WindowSize = def.W
	}
	if c.Overlap == 0 && c.WindowSize == def.W {
		c.Overlap = def.O
	}
	if c.ErrorK == 0 {
		c.ErrorK = min(def.InitialK, c.WindowSize)
	}
	kd := ksw2.DefaultParams()
	if c.MatchScore == 0 {
		c.MatchScore = kd.Penalties.A
	}
	if c.MismatchPenalty == 0 {
		c.MismatchPenalty = kd.Penalties.B
	}
	if c.GapOpen == 0 {
		c.GapOpen = kd.Penalties.Q
	}
	if c.GapExtend == 0 {
		c.GapExtend = kd.Penalties.E
	}
	if c.BandWidth == 0 {
		c.BandWidth = kd.BandWidth
	}
}

func (c Config) penalties() cigar.AffinePenalties {
	return cigar.AffinePenalties{A: c.MatchScore, B: c.MismatchPenalty, Q: c.GapOpen, E: c.GapExtend}
}

// Result is one alignment.
type Result struct {
	// Distance is the unit-cost edit distance realized by the alignment.
	Distance int
	// Score is the alignment's affine-gap score under the configured
	// penalties (higher is better).
	Score int
	// Cigar is the extended CIGAR string (=, X, I, D operations).
	Cigar string
	// RefConsumed is how many reference bases the alignment covers; the
	// GenASM algorithms treat trailing reference as candidate-region
	// slack, the global aligners always consume everything.
	RefConsumed int
}

// aligner aligns query sequences against candidate reference regions.
// An aligner is NOT safe for concurrent use (the GenASM kernels keep
// per-aligner scratch); the cpu backend pools one per goroutine.
type aligner struct {
	impl func(q, t []byte) (Result, error)
}

// newAligner builds an aligner for cfg.
func newAligner(cfg Config) (*aligner, error) {
	cfg.fillDefaults()
	a := &aligner{}
	pen := cfg.penalties()
	switch cfg.Algorithm {
	case GenASM:
		g, err := core.New(core.Config{
			W: cfg.WindowSize, O: cfg.Overlap, InitialK: cfg.ErrorK,
			DisableSENE: cfg.DisableSENE, DisableDENT: cfg.DisableDENT, DisableET: cfg.DisableET,
		})
		if err != nil {
			return nil, err
		}
		a.impl = func(q, t []byte) (Result, error) {
			r, err := g.AlignEncoded(q, t)
			if err != nil {
				return Result{}, err
			}
			return Result{Distance: r.Distance, Score: r.Cigar.AffineScore(pen),
				Cigar: r.Cigar.String(), RefConsumed: r.RefConsumed}, nil
		}
	case GenASMUnimproved:
		if cfg.DisableSENE || cfg.DisableDENT || cfg.DisableET {
			return nil, errors.New("genasm: improvement toggles apply to the improved algorithm only")
		}
		g, err := baseline.New(baseline.Config{W: cfg.WindowSize, O: cfg.Overlap, InitialK: cfg.ErrorK})
		if err != nil {
			return nil, err
		}
		a.impl = func(q, t []byte) (Result, error) {
			r, err := g.AlignEncoded(q, t)
			if err != nil {
				return Result{}, err
			}
			return Result{Distance: r.Distance, Score: r.Cigar.AffineScore(pen),
				Cigar: r.Cigar.String(), RefConsumed: r.RefConsumed}, nil
		}
	case Edlib:
		a.impl = func(q, t []byte) (Result, error) {
			d, cg, err := edlib.AlignEncoded(q, t)
			if err != nil {
				return Result{}, err
			}
			return Result{Distance: d, Score: cg.AffineScore(pen),
				Cigar: cg.String(), RefConsumed: len(t)}, nil
		}
	case KSW2:
		p := ksw2.Params{Penalties: pen, BandWidth: cfg.BandWidth}
		a.impl = func(q, t []byte) (Result, error) {
			sc, cg, err := ksw2.GlobalAlignEncoded(q, t, p)
			if err != nil {
				return Result{}, err
			}
			return Result{Distance: cg.EditCost(), Score: sc,
				Cigar: cg.String(), RefConsumed: len(t)}, nil
		}
	case SWG:
		a.impl = func(q, t []byte) (Result, error) {
			sc, cg := swg.AffineAlign(dna.DecodeSeq(q), dna.DecodeSeq(t), pen)
			return Result{Distance: cg.EditCost(), Score: sc,
				Cigar: cg.String(), RefConsumed: len(t)}, nil
		}
	default:
		return nil, fmt.Errorf("genasm: unknown algorithm %q", cfg.Algorithm)
	}
	return a, nil
}

// Align aligns query against the candidate reference region ref. Both are
// raw ASCII sequences; non-ACGT characters never match anything.
func (a *aligner) Align(query, ref []byte) (Result, error) {
	return a.impl(dna.EncodeSeq(query), dna.EncodeSeq(ref))
}

// Pair is one batch alignment job.
type Pair struct {
	Query, Ref []byte
}

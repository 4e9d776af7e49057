// Package seedindex is the seed-filter-extend prefilter that opens the
// engine to chromosome-scale inputs (DESIGN.md section 13).
//
// The paper's O(n^3) top-alignment search is exact but caps practical
// inputs around a few thousand residues. Real repeat finders reach
// megabase scale with the classic seed-filter-extend decomposition:
// index short exact (or spaced) seed matches, bucket them by diagonal,
// chain nearby seeds into candidate regions, and run the expensive
// alignment kernel only inside those regions. This package implements
// that pipeline on top of the existing machinery:
//
//	index  — k-mer/spaced-seed index over the input, one next-occurrence
//	         link per position, with per-seed occurrence caps (BuildIndex)
//	chain  — seed pairs in position order -> segments placed by band ->
//	         band clusters (Chain), on the cores the process can spare
//	         -> candidate windows with admissible score upper bounds
//	         (Candidates); counting passes in place of sorts
//	extend — banded windowed extension through the topalign best-first
//	         queue, so pruning stays sound (Find)
//
// Soundness: every candidate window carries Bound = MaxScore*min(H, W),
// an admissible upper bound on any alignment confined to it (each of the
// at most min(H, W) matched pairs scores at most MaxScore; gap penalties
// only subtract, since scoring.Gap requires Open >= 0 and Ext > 0).
// Windows enter the best-first queue at their bound and are always
// realigned exactly before acceptance, so the queue's pruning argument
// is unchanged. What the prefilter trades is sensitivity, not
// correctness of what it reports: repeats whose seeds are filtered away
// are missed entirely. The differential and recall tests bound that
// trade per preset.
package seedindex

import (
	"fmt"
	"math"
)

// Config holds the raw prefilter knobs. Zero values are invalid;
// construct via a preset (PresetConfig) and override fields as needed.
type Config struct {
	// K is the contiguous seed length. Ignored when Mask is non-empty.
	K int
	// Mask is an optional spaced-seed mask over {'0','1'}: '1' positions
	// are sampled, '0' positions are wildcards. The seed weight is the
	// number of '1's; the seed span is len(Mask).
	Mask string
	// Base is the number of primary alphabet codes (20 for protein, 4
	// for DNA); residue codes >= Base are ambiguity letters and any seed
	// window containing one is skipped.
	Base int
	// MaxOcc drops k-mers occurring more than this many times — the
	// degenerate low-complexity tail (homopolymer runs) that would
	// otherwise produce quadratic seed pairs.
	MaxOcc int
	// SuccPairs pairs each seed occurrence with at most this many of its
	// successors in position order, bounding total pairs at n*SuccPairs
	// while keeping adjacent-copy diagonals of high-copy repeat families
	// (which a plain occurrence cap would destroy).
	SuccPairs int
	// MergeGap is the maximum i-gap between same-diagonal seeds merged
	// into one segment.
	MergeGap int
	// ChainGap is the maximum i-gap between segments chained into one
	// cluster within a diagonal band.
	ChainGap int
	// BandWidth buckets diagonals into bands of this width; segments
	// cluster only within a band (indels make matching diagonals wander
	// by roughly the indel count, which BandWidth must absorb).
	BandWidth int
	// Pad expands candidate windows on the top, left and right by this
	// many residues so alignments can extend past their outermost seeds.
	// The bottom edge is never padded: the window's bottom row is the
	// alignment's ending split, which must stay on a seed-supported row.
	Pad int
	// MinSeeds is the minimum number of seed segments per cluster.
	MinSeeds int
	// MinMatched is the minimum total matched seed positions per
	// cluster; together with MinSeeds it rejects background noise.
	MinMatched int
	// MaxCandidates caps the number of candidate windows (best by
	// matched seed positions kept); 0 means unlimited.
	MaxCandidates int
}

// Presets. Sensitive is special-cased by callers (package repro): it
// routes the request to the exact engine and uses the prefilter only for
// telemetry, so its differential guarantee is bit-identity by
// construction. Fast and balanced run the windowed extension and trade
// sensitivity for speed; their recall floors are pinned by tests.
const (
	PresetFast      = "fast"
	PresetBalanced  = "balanced"
	PresetSensitive = "sensitive"
)

// ValidPreset reports whether name is a recognised preset.
func ValidPreset(name string) bool {
	switch name {
	case PresetFast, PresetBalanced, PresetSensitive:
		return true
	}
	return false
}

// PresetConfig returns the tuned configuration for a preset over an
// alphabet with the given primary letter count (seq.PrimaryLetters).
// Small bases get long seeds (DNA-style), large bases short ones
// (protein-style).
func PresetConfig(preset string, base int) (Config, error) {
	if base < 2 {
		return Config{}, fmt.Errorf("seedindex: primary alphabet size %d too small", base)
	}
	dna := base <= 6
	var c Config
	switch preset {
	case PresetFast:
		if dna {
			c = Config{K: 12, MaxOcc: 64, SuccPairs: 4, MergeGap: 16, ChainGap: 64,
				BandWidth: 8, Pad: 16, MinSeeds: 3, MinMatched: 36, MaxCandidates: 4096}
		} else {
			c = Config{K: 3, MaxOcc: 512, SuccPairs: 4, MergeGap: 16, ChainGap: 48,
				BandWidth: 8, Pad: 16, MinSeeds: 3, MinMatched: 9, MaxCandidates: 4096}
		}
	case PresetBalanced, PresetSensitive:
		if dna {
			c = Config{K: 10, MaxOcc: 256, SuccPairs: 8, MergeGap: 24, ChainGap: 96,
				BandWidth: 16, Pad: 32, MinSeeds: 2, MinMatched: 20, MaxCandidates: 16384}
		} else {
			c = Config{K: 3, MaxOcc: 1024, SuccPairs: 8, MergeGap: 24, ChainGap: 64,
				BandWidth: 16, Pad: 32, MinSeeds: 2, MinMatched: 6, MaxCandidates: 16384}
		}
	default:
		return Config{}, fmt.Errorf("seedindex: unknown preset %q (have fast, balanced, sensitive)", preset)
	}
	c.Base = base
	return c, nil
}

// Resolve returns the preset's configuration over base with a caller's
// overrides applied, validated: the one place a preset name and seed
// knobs become a Config. Only K, Mask, MaxOcc, BandWidth and Pad of over
// are read, and each replaces the preset's value when non-zero.
func Resolve(preset string, base int, over Config) (Config, error) {
	c, err := PresetConfig(preset, base)
	if err != nil {
		return Config{}, err
	}
	if over.K > 0 {
		c.K = over.K
	}
	if over.Mask != "" {
		c.Mask = over.Mask
	}
	if over.MaxOcc > 0 {
		c.MaxOcc = over.MaxOcc
	}
	if over.BandWidth > 0 {
		c.BandWidth = over.BandWidth
	}
	if over.Pad > 0 {
		c.Pad = over.Pad
	}
	return c, c.Validate()
}

// Weight returns the number of sampled seed positions.
func (c Config) Weight() int {
	if c.Mask == "" {
		return c.K
	}
	w := 0
	for i := 0; i < len(c.Mask); i++ {
		if c.Mask[i] == '1' {
			w++
		}
	}
	return w
}

// offsets returns the sampled offsets within the seed window, ascending.
func (c Config) offsets() []int {
	offs := make([]int, 0, c.Weight())
	for i := 0; i < c.Span(); i++ {
		if c.Mask == "" || c.Mask[i] == '1' {
			offs = append(offs, i)
		}
	}
	return offs
}

// Span returns the seed window length in residues.
func (c Config) Span() int {
	if c.Mask == "" {
		return c.K
	}
	return len(c.Mask)
}

// Validate checks the configuration, including that base^weight packed
// k-mer keys fit in a uint64.
func (c Config) Validate() error {
	if c.Base < 2 {
		return fmt.Errorf("seedindex: primary alphabet size %d too small", c.Base)
	}
	if c.Mask != "" {
		for i := 0; i < len(c.Mask); i++ {
			if c.Mask[i] != '0' && c.Mask[i] != '1' {
				return fmt.Errorf("seedindex: spaced-seed mask %q has invalid byte %q at %d (want only '0'/'1')",
					c.Mask, c.Mask[i], i)
			}
		}
		if c.Mask[0] != '1' || c.Mask[len(c.Mask)-1] != '1' {
			return fmt.Errorf("seedindex: spaced-seed mask %q must start and end with '1'", c.Mask)
		}
	} else if c.K < 1 {
		return fmt.Errorf("seedindex: seed length k=%d must be >= 1", c.K)
	}
	w := c.Weight()
	if w < 1 {
		return fmt.Errorf("seedindex: seed weight %d must be >= 1", w)
	}
	// base^weight must fit a uint64 key.
	key := uint64(1)
	for i := 0; i < w; i++ {
		if key > math.MaxUint64/uint64(c.Base) {
			return fmt.Errorf("seedindex: seed weight %d over base %d overflows the packed key", w, c.Base)
		}
		key *= uint64(c.Base)
	}
	if c.MaxOcc < 1 {
		return fmt.Errorf("seedindex: occurrence cap %d must be >= 1", c.MaxOcc)
	}
	if c.SuccPairs < 1 {
		return fmt.Errorf("seedindex: successor pair cap %d must be >= 1", c.SuccPairs)
	}
	if c.MergeGap < 0 || c.ChainGap < 0 {
		return fmt.Errorf("seedindex: gaps must be non-negative (merge %d, chain %d)", c.MergeGap, c.ChainGap)
	}
	if c.BandWidth < 1 {
		return fmt.Errorf("seedindex: band width %d must be >= 1", c.BandWidth)
	}
	if c.Pad < 0 {
		return fmt.Errorf("seedindex: pad %d must be non-negative", c.Pad)
	}
	if c.MinSeeds < 1 {
		return fmt.Errorf("seedindex: min seeds %d must be >= 1", c.MinSeeds)
	}
	if c.MinMatched < 0 {
		return fmt.Errorf("seedindex: min matched %d must be non-negative", c.MinMatched)
	}
	if c.MaxCandidates < 0 {
		return fmt.Errorf("seedindex: max candidates %d must be non-negative", c.MaxCandidates)
	}
	return nil
}

// Stats summarises one prefilter run; it is surfaced through the report
// and the /v1 API so clients can see what the filter did.
type Stats struct {
	Kmers         int   `json:"kmers"`          // distinct seeds kept
	DroppedKmers  int   `json:"dropped_kmers"`  // seeds dropped by MaxOcc
	Positions     int   `json:"positions"`      // indexed occurrences
	Pairs         int   `json:"pairs"`          // seed match pairs
	Segments      int   `json:"segments"`       // merged diagonal segments
	Clusters      int   `json:"clusters"`       // chained clusters
	Candidates    int   `json:"candidates"`     // candidate windows emitted
	PrunedBound   int   `json:"pruned_bound"`   // candidates pruned by MinScore bound
	WindowCells   int64 `json:"window_cells"`   // total window area enqueued
	SequenceCells int64 `json:"sequence_cells"` // n*(n-1)/2, the exact engine's pair space
}

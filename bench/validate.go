package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro"
	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/topalign"
)

// scoringModel resolves a matrix name to the parameters repro.Analyze
// uses for it when no gap is given.
func scoringModel(matrix string) (align.Params, error) {
	if matrix == "" {
		matrix = "BLOSUM62"
	}
	exch, ok := scoring.ByName(matrix)
	if !ok {
		return align.Params{}, fmt.Errorf("unknown matrix %q", matrix)
	}
	gap := scoring.DefaultProteinGap
	switch exch.Name() {
	case "paper-dna":
		gap = scoring.PaperGap
	case "dna-unit":
		gap = scoring.Gap{Open: 8, Ext: 2}
	}
	return align.Params{Exch: exch, Gap: gap}, nil
}

// validateTops is the any-seed structural check of a report's top
// alignments over sequence codes: at least one top, scores
// non-increasing, every top a strictly increasing path across its split
// whose score, recomputed from its pairs under the matrix and gap
// model, equals the reported one, and no pair shared between tops.
func validateTops(tops []repro.TopAlignment, p align.Params, codes []byte) error {
	if len(tops) == 0 {
		return fmt.Errorf("no top alignments")
	}
	seen := make(map[repro.Pair]int)
	for k, top := range tops {
		if k > 0 && top.Score > tops[k-1].Score {
			return fmt.Errorf("top %d scores %d above top %d's %d", k+1, top.Score, k, tops[k-1].Score)
		}
		if len(top.Pairs) == 0 {
			return fmt.Errorf("top %d has no pairs", k+1)
		}
		var score int32
		for i, pr := range top.Pairs {
			if pr.I < 1 || pr.I > top.Split || pr.J <= top.Split || pr.J > len(codes) {
				return fmt.Errorf("top %d pair %v does not cross split %d of %d residues", k+1, pr, top.Split, len(codes))
			}
			if other, dup := seen[pr]; dup {
				return fmt.Errorf("top %d shares pair %v with top %d", k+1, pr, other)
			}
			seen[pr] = k + 1
			score += p.Exch.Score(codes[pr.I-1], codes[pr.J-1])
			if i > 0 {
				prev := top.Pairs[i-1]
				if pr.I <= prev.I || pr.J <= prev.J {
					return fmt.Errorf("top %d path not increasing at %v -> %v", k+1, prev, pr)
				}
				score -= p.Gap.Cost(pr.I-prev.I-1) + p.Gap.Cost(pr.J-prev.J-1)
			}
		}
		if int(score) != top.Score {
			return fmt.Errorf("top %d reports score %d, its pairs score %d", k+1, top.Score, score)
		}
	}
	return nil
}

// digestTops hashes what the engines must agree on bit for bit: score,
// split and pairs of every top, in acceptance order.
func digestTops(tops []repro.TopAlignment) string {
	h := sha256.New()
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	put(len(tops))
	for _, top := range tops {
		put(top.Score)
		put(top.Split)
		put(len(top.Pairs))
		for _, pr := range top.Pairs {
			put(pr.I)
			put(pr.J)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// reproTops converts engine tops to the report form so the staged
// replay can be held against repro.Analyze.
func reproTops(tops []topalign.TopAlignment) []repro.TopAlignment {
	out := make([]repro.TopAlignment, len(tops))
	for i, t := range tops {
		out[i] = repro.TopAlignment{Index: t.Index, Split: t.Split, Score: int(t.Score), Pairs: make([]repro.Pair, len(t.Pairs))}
		for j, p := range t.Pairs {
			out[i].Pairs[j] = repro.Pair{I: p.I, J: p.J}
		}
	}
	return out
}

// goldenSeed is the seed whose hot set is committed in golden.json, and
// whose batch inputs are the size solve_s is scaled to.
const goldenSeed = 1

// goldenInput is what golden.json holds of one batch input at full
// scale: the digest of its tops and the cells repro.Analyze computed for
// it at the commit that wrote the file. The cell count is a frozen
// measure of how much work the input is; the program under test cannot
// move it.
type goldenInput struct {
	Digest string `json:"digest"`
	Cells  int64  `json:"cells"`
}

// golden holds the committed outputs at full scale: every family member
// of every batch workload, and the seed-1 hot set of the serve workloads.
type golden struct {
	Batch  map[string][]goldenInput `json:"batch"`
	HotSet []string                 `json:"hot_set"`
}

const goldenPath = "golden.json"

func readGolden() (*golden, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	for name, inputs := range g.Batch {
		if len(inputs) != familySize {
			return nil, fmt.Errorf("%s: %s has %d inputs, the family %d", goldenPath, name, len(inputs), familySize)
		}
		for m, in := range inputs {
			if in.Cells <= 0 {
				return nil, fmt.Errorf("%s: %s input %d has no cell count", goldenPath, name, m)
			}
		}
	}
	return &g, nil
}

// checkGolden holds a digest of a full-scale run against the committed
// one.
func checkGolden(r *Run, what, got, want string) {
	r.checked("golden digest")
	if got != want {
		r.fail("%s: digest %s differs from golden %s", what, got, want)
	}
}

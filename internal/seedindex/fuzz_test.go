package seedindex

import (
	"reflect"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
)

// fuzzSeeds feeds the corpus shapes the prefilter must survive: empty
// input, inputs shorter than the seed span, homopolymer runs (worst-case
// posting lists), all-ambiguity input (the byte analogue of all-N), and
// arbitrary malformed alphabets with out-of-range codes.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{}, 3, 64, "")
	f.Add([]byte{0}, 5, 64, "")                            // k > len
	f.Add([]byte{0, 1, 2, 3}, 12, 64, "")                  // k > len, dna-sized k
	f.Add(make([]byte, 200), 3, 8, "")                     // homopolymer, cap small
	f.Add([]byte{255, 255, 255, 255, 255, 255}, 3, 64, "") // all-N
	f.Add([]byte{0, 1, 20, 4, 0, 1, 20, 4, 0, 1}, 3, 64, "")
	f.Add([]byte("\x00\x01\x02\x00\x01\x02\x00\x01\x02"), 3, 64, "101")
	f.Add([]byte{0, 19, 0, 19, 0, 19, 0, 19}, 2, 64, "1001")
	f.Add([]byte{7, 7, 7, 1, 7, 7, 7, 1, 7, 7, 7, 1}, 3, 1, "")
}

// FuzzSeedIndex throws arbitrary byte sequences and knob values at
// BuildIndex. Invalid configurations must be rejected with an error, and
// every accepted index must satisfy its invariants: a link leads forward
// to an in-range window sampling the same codes, none of them outside
// the primary alphabet, and the links are exactly the oracle's posting
// lists under the cap.
func FuzzSeedIndex(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, k int, maxOcc int, mask string) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		cfg := Config{K: k, Mask: mask, Base: 20, MaxOcc: maxOcc, SuccPairs: 4,
			MergeGap: 8, ChainGap: 32, BandWidth: 8, Pad: 8, MinSeeds: 1, MinMatched: 1}
		x, err := BuildIndex(data, cfg)
		if err != nil {
			if cfg.Validate() == nil {
				t.Fatalf("BuildIndex rejected a valid config: %v", err)
			}
			return
		}
		offsets := cfg.offsets()
		for p, j := range x.next {
			if j == 0 {
				continue
			}
			if int(j) <= p || int(j)+cfg.Span() > len(data) {
				t.Fatalf("link %d -> %d does not lead forward to a window inside length %d", p, j, len(data))
			}
			for _, o := range offsets {
				if data[p+o] != data[int(j)+o] || data[p+o] >= byte(cfg.Base) {
					t.Fatalf("link %d -> %d joins different or out-of-alphabet seeds", p, j)
				}
			}
		}
		checkIndexAgainstOracle(t, x, data, cfg)
	})
}

// FuzzChainCandidates runs the full index -> chain -> candidates path on
// arbitrary input and checks the downstream contract the extension stage
// relies on: every candidate window validates against the sequence
// length (Y1 < X0 included), bounds are positive, match the admissible
// closed form, and candidates arrive in deterministic sorted order — and
// every stage equals the sort-based oracle's. Its inputs are too short
// for Chain to split, so it also chains each in three parts, which must
// change nothing.
func FuzzChainCandidates(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, k int, maxOcc int, mask string) {
		if len(data) > 1<<13 {
			data = data[:1<<13]
		}
		cfg := Config{K: k, Mask: mask, Base: 20, MaxOcc: maxOcc, SuccPairs: 4,
			MergeGap: 8, ChainGap: 32, BandWidth: 8, Pad: 8, MinSeeds: 1,
			MinMatched: 1, MaxCandidates: 512}
		if cfg.Validate() != nil {
			return
		}
		x, err := BuildIndex(data, cfg)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		m, _ := scoring.ByName("BLOSUM62")
		maxScore := m.MaxScore()
		ch := Chain(x, cfg)
		split := newChainer(x, cfg, 3)
		split.segments(crew{})
		if got := split.chain(crew{}); !reflect.DeepEqual(got, ch) {
			t.Fatalf("three parts chain %d pairs %d segments %d clusters, one part %d/%d/%d",
				got.Pairs, got.Segments, len(got.Clusters), ch.Pairs, ch.Segments, len(ch.Clusters))
		}
		cands := Candidates(ch, cfg, len(data), maxScore)
		if len(cands) > cfg.MaxCandidates {
			t.Fatalf("%d candidates exceed cap %d", len(cands), cfg.MaxCandidates)
		}
		var prev *align.Rect
		for i := range cands {
			c := cands[i]
			if err := c.Rect.Validate(len(data)); err != nil {
				t.Fatalf("candidate %d invalid: %v", i, err)
			}
			want := maxScore * int32(min(c.Rect.H(), c.Rect.W()))
			if c.Bound <= 0 || c.Bound != want {
				t.Fatalf("candidate %d bound %d, want %d", i, c.Bound, want)
			}
			if prev != nil {
				a, b := *prev, c.Rect
				if b.Y0 < a.Y0 || (b.Y0 == a.Y0 && b.X0 < a.X0) {
					t.Fatalf("candidates not sorted: %+v before %+v", a, b)
				}
			}
			prev = &cands[i].Rect
		}
		checkAgainstOracle(t, data, cfg, maxScore)
	})
}

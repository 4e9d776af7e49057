package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro"
	"repro/internal/repeats"
	"repro/internal/scoring"
	"repro/internal/seedindex"
	"repro/internal/seq"
)

// Params are the analysis parameters of one serving request. The JSON
// zero value of every field selects the same default the reprocli
// binary uses, so a request carrying only a sequence is valid.
type Params struct {
	// Matrix names the exchange matrix (default BLOSUM62).
	Matrix string `json:"matrix,omitempty"`
	// GapOpen and GapExt define the affine gap cost; both zero selects
	// the matrix's conventional default.
	GapOpen int `json:"gap_open,omitempty"`
	GapExt  int `json:"gap_ext,omitempty"`
	// Tops is the number of top alignments (default repro.DefaultNumTops).
	Tops int `json:"tops,omitempty"`
	// MinScore stops the search when no alignment reaches it.
	MinScore int `json:"min_score,omitempty"`
	// MinPairs filters top alignments during delineation (default
	// repeats.DefaultMinPairs).
	MinPairs int `json:"min_pairs,omitempty"`
	// Lanes sets how many neighbouring matrices one task aligns: 0 (the
	// engine chooses, see repro.Options.Lanes), 1 (one matrix per
	// task), 4, 8, 16, or 32. Strict-mode reports are identical for
	// every value, so like Backend it is not part of the cache key.
	Lanes int `json:"lanes,omitempty"`
	// Speculative selects the paper's speculative acceptance rule for
	// the parallel backends. Off = strict: every backend returns a
	// result bit-identical to the sequential engine, which is what lets
	// the cache be shared across backends.
	Speculative bool `json:"speculative,omitempty"`
	// Preset selects the seed-filter-extend prefilter for long inputs:
	// "" (exact engine), "fast", "balanced", or "sensitive" (exact
	// engine + prefilter telemetry). Fast and balanced run the windowed
	// driver regardless of backend — one best-first loop, with window
	// first alignments computed ahead on every core — so their reports,
	// and cache entries, are the same for every backend.
	Preset string `json:"preset,omitempty"`
	// SeedK, SeedMask, SeedMaxOcc, SeedBand and SeedPad override
	// individual prefilter knobs (0/"" = preset default). Valid only
	// with a preset.
	SeedK      int    `json:"seed_k,omitempty"`
	SeedMask   string `json:"seed_mask,omitempty"`
	SeedMaxOcc int    `json:"seed_max_occ,omitempty"`
	SeedBand   int    `json:"seed_band,omitempty"`
	SeedPad    int    `json:"seed_pad,omitempty"`
}

// Request is the body of POST /v1/analyze.
type Request struct {
	// ID labels the sequence in the report (default "serve").
	ID string `json:"id,omitempty"`
	// Sequence is the residue string to analyse.
	Sequence string `json:"sequence"`
	Params
	// Backend selects the execution engine: "sequential" (default:
	// repro.Analyze's default engine, the sequential loop on one core or
	// strict workers on the cores the process can spare), "parallel"
	// (shared-memory workers), or "cluster" (in-process master/slave
	// cluster).
	Backend string `json:"backend,omitempty"`
	// Workers sizes the parallel backend (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Slaves and ThreadsPerSlave size the cluster backend (0 = 2 each).
	Slaves          int `json:"slaves,omitempty"`
	TimeoutMS       int `json:"timeout_ms,omitempty"`
	ThreadsPerSlave int `json:"threads_per_slave,omitempty"`
}

// Response is the body of a successful POST /v1/analyze. Report is the
// repro.Report JSON; it is kept raw because the server caches results
// pre-encoded (a cache hit ships stored bytes instead of re-marshalling
// tens of KB of pairs) and a client that only wants the envelope never
// pays for decoding it.
type Response struct {
	ID string `json:"id,omitempty"`
	// Cache reports how the request was satisfied: "hit" (stored
	// result), "miss" (computed by this request), or "shared" (joined
	// an identical in-flight computation).
	Cache string `json:"cache"`
	// ElapsedMS is the server-side end-to-end latency, admission
	// included.
	ElapsedMS float64         `json:"elapsed_ms"`
	Report    json.RawMessage `json:"report"`
}

// DecodeReport unmarshals the raw report payload.
func (r *Response) DecodeReport() (*repro.Report, error) {
	var rep repro.Report
	if err := json.Unmarshal(r.Report, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Backend names.
const (
	BackendSequential = "sequential"
	BackendParallel   = "parallel"
	BackendCluster    = "cluster"
)

// maxFanout bounds workers, slaves and threads_per_slave: a request body
// must not choose how many goroutines (each with its own kernel scratch)
// the server spawns. 64 is the paper's largest cluster.
const maxFanout = 64

// canonicalise validates the request and resolves every defaulted
// field to its explicit value, so that two requests asking for the
// same analysis in different spellings produce the same cache key.
// The sequence is trimmed and upper-cased (the engine's alphabets are
// case-insensitive).
func (r *Request) canonicalise(maxSeqLen int) error {
	r.Sequence = strings.ToUpper(strings.TrimSpace(r.Sequence))
	if r.Sequence == "" {
		return fmt.Errorf("sequence is required")
	}
	if maxSeqLen > 0 && len(r.Sequence) > maxSeqLen {
		return fmt.Errorf("sequence length %d exceeds the server limit %d", len(r.Sequence), maxSeqLen)
	}
	if r.ID == "" {
		r.ID = "serve"
	}
	if r.Matrix == "" {
		r.Matrix = "BLOSUM62"
	}
	m, ok := scoring.ByName(r.Matrix)
	if !ok {
		return fmt.Errorf("unknown exchange matrix %q (have BLOSUM62, PAM250, dna-unit, paper-dna)", r.Matrix)
	}
	if r.GapOpen == 0 && r.GapExt == 0 {
		g := scoring.DefaultGap(m)
		r.GapOpen, r.GapExt = int(g.Open), int(g.Ext)
	}
	if r.GapOpen < 0 || r.GapExt < 0 {
		return fmt.Errorf("gap penalties must be non-negative")
	}
	if r.Tops <= 0 {
		r.Tops = repro.DefaultNumTops
	}
	if r.MinScore <= 0 {
		r.MinScore = 1
	}
	if r.MinPairs <= 0 {
		r.MinPairs = repeats.DefaultMinPairs
	}
	switch r.Lanes {
	case 0, 1, 4, 8, 16, 32:
	default:
		return fmt.Errorf("lanes %d must be 0, 1, 4, 8, 16, or 32", r.Lanes)
	}
	if r.Preset != "" && !seedindex.ValidPreset(r.Preset) {
		return fmt.Errorf("unknown preset %q (have fast, balanced, sensitive)", r.Preset)
	}
	if r.Preset == "" && (r.SeedK != 0 || r.SeedMask != "" || r.SeedMaxOcc != 0 ||
		r.SeedBand != 0 || r.SeedPad != 0) {
		return fmt.Errorf("seed_* parameters require a preset")
	}
	if r.Preset != "" {
		// Resolve the preset to explicit knob values so two requests
		// spelling the same prefilter differently share a cache key,
		// and reject invalid overrides before they reach the engine.
		pcfg, err := seedindex.Resolve(r.Preset, seq.PrimaryLetters(m.Alphabet()), seedindex.Config{
			K: r.SeedK, Mask: r.SeedMask, MaxOcc: r.SeedMaxOcc, BandWidth: r.SeedBand, Pad: r.SeedPad,
		})
		if err != nil {
			return err
		}
		r.SeedK, r.SeedMask, r.SeedMaxOcc = pcfg.K, pcfg.Mask, pcfg.MaxOcc
		r.SeedBand, r.SeedPad = pcfg.BandWidth, pcfg.Pad
	}
	switch r.Backend {
	case "":
		r.Backend = BackendSequential
	case BackendSequential, BackendParallel, BackendCluster:
	default:
		return fmt.Errorf("unknown backend %q (have sequential, parallel, cluster)", r.Backend)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", r.Workers}, {"slaves", r.Slaves}, {"threads_per_slave", r.ThreadsPerSlave}} {
		if f.v < 0 || f.v > maxFanout {
			return fmt.Errorf("%s %d must be between 0 and %d", f.name, f.v, maxFanout)
		}
	}
	if r.Backend == BackendCluster {
		if r.Slaves == 0 {
			r.Slaves = 2
		}
		if r.ThreadsPerSlave == 0 {
			r.ThreadsPerSlave = 2
		}
	}
	return nil
}

// Canonicalise validates the request and resolves defaults in place,
// exactly as the analyze handler does before keying the cache. The
// router tier calls it so router and shard derive identical cache keys
// from identical requests; maxSeqLen <= 0 skips the length check (the
// shard still enforces its own limit).
func (r *Request) Canonicalise(maxSeqLen int) error {
	return r.canonicalise(maxSeqLen)
}

// CacheKey derives the content-addressed cache key of a canonicalised
// request: SHA-256 over the sequence digest plus every parameter that
// can change the report. The backend and the lane count are
// deliberately excluded — in strict mode all three backends and every
// lane count are bit-identical, so they share cache entries;
// speculative runs key separately because their acceptance order among
// equal-scoring alignments may differ. The v2 prefix retires keys that
// carried lanes and striped.
func CacheKey(r *Request) string {
	seqSum := sha256.Sum256([]byte(r.Sequence))
	h := sha256.New()
	fmt.Fprintf(h, "v2|%x|%s|%d|%d|%d|%d|%d|%t",
		seqSum, r.Matrix, r.GapOpen, r.GapExt, r.Tops,
		r.MinScore, r.MinPairs, r.Speculative)
	if r.Preset != "" {
		// Prefilter requests key on the resolved knobs (canonicalise
		// filled them from the preset), so an explicit spelling of a
		// preset's defaults shares its cache entry.
		fmt.Fprintf(h, "|pf|%s|%d|%s|%d|%d|%d",
			r.Preset, r.SeedK, r.SeedMask, r.SeedMaxOcc, r.SeedBand, r.SeedPad)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Command reprocli finds internal repeats in protein or DNA sequences:
// it computes nonoverlapping top alignments with the paper's O(n^3)
// algorithm and delineates repeat families from them.
//
// Usage:
//
//	reprocli -seq ATGCATGCATGC -matrix paper-dna -tops 3
//	reprocli -in proteins.fasta -tops 25 -workers 4
//	reprocli -titin 2000 -tops 50 -stats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/align"
	"repro/internal/atomicfile"
	"repro/internal/obs"
	"repro/internal/seq"
)

func main() {
	var (
		inPath     = flag.String("in", "", "FASTA input file (default: stdin unless -seq/-titin)")
		rawSeq     = flag.String("seq", "", "literal sequence instead of FASTA input")
		titinLen   = flag.Int("titin", 0, "analyse a synthetic titin-like protein of this length")
		matrix     = flag.String("matrix", "BLOSUM62", "exchange matrix: BLOSUM62, PAM250, dna-unit, paper-dna")
		tops       = flag.Int("tops", repro.DefaultNumTops, "number of top alignments")
		gapOpen    = flag.Int("gap-open", 0, "gap opening penalty (0 = matrix default)")
		gapExt     = flag.Int("gap-ext", 0, "gap extension penalty (0 = matrix default)")
		minScore   = flag.Int("min-score", 0, "stop when no alignment reaches this score")
		lanes      = flag.Int("lanes", 0, "matrices aligned per task: 0 = choose (default), 1, 4, 8, 16, or 32")
		workers    = flag.Int("workers", 0, "shared-memory worker goroutines (0 = one per core the process can spare, 1 = sequential)")
		slaves     = flag.Int("slaves", 0, "run an in-process cluster with this many slaves")
		threads    = flag.Int("threads", 1, "worker threads per cluster slave")
		spec       = flag.Bool("speculative", false, "speculative parallel acceptance (paper mode)")
		minPairs   = flag.Int("min-pairs", 0, "minimum matched pairs per alignment for delineation")
		preset     = flag.String("preset", "", "seed-filter-extend prefilter for long inputs: fast, balanced, or sensitive")
		seedK      = flag.Int("seed-k", 0, "prefilter seed length (0 = preset default)")
		seedMask   = flag.String("seed-mask", "", "prefilter spaced-seed mask over {0,1} (overrides -seed-k)")
		seedMaxOcc = flag.Int("seed-max-occ", 0, "prefilter per-seed occurrence cap (0 = preset default)")
		seedBand   = flag.Int("seed-band", 0, "prefilter diagonal band width (0 = preset default)")
		seedPad    = flag.Int("seed-pad", 0, "prefilter candidate window padding (0 = preset default)")
		stats      = flag.Bool("stats", false, "print engine statistics")
		showAln    = flag.Int("align", 0, "render the first N top alignments residue by residue")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file (- for stdout)")
		kernelTier = flag.String("kernel-tier", "", "cap the kernel tier: scalar, int32x8, int16x16, u8x32 (default auto)")
		diag       = flag.Bool("diag", false, "print SIMD kernel-tier diagnostics and exit")
	)
	flag.Parse()

	if *kernelTier != "" { // unset leaves a REPRO_KERNEL_TIER override in force
		if err := align.SetKernelTier(*kernelTier); err != nil {
			fatal(err)
		}
	}
	if *diag {
		fmt.Printf("kernel tiers: detected=%s active=%s (avx2=%t avx512=%t)\n",
			align.DetectedTier(), align.ActiveTier(),
			align.DetectedTier() >= align.TierInt32x8, align.DetectedAVX512())
		return
	}

	opt := repro.Options{
		Matrix: *matrix, NumTops: *tops,
		GapOpen: *gapOpen, GapExt: *gapExt, MinScore: *minScore,
		Lanes:   *lanes,
		Workers: *workers, Slaves: *slaves, ThreadsPerSlave: *threads,
		Speculative: *spec, MinPairs: *minPairs,
		Preset: *preset, SeedK: *seedK, SeedMask: *seedMask,
		SeedMaxOcc: *seedMaxOcc, SeedBand: *seedBand, SeedPad: *seedPad,
	}
	if *metricsOut != "" {
		opt.Metrics = obs.NewRegistry()
	}

	var reports []*repro.Report
	var err error
	switch {
	case *rawSeq != "":
		var rep *repro.Report
		rep, err = repro.Analyze("cmdline", *rawSeq, opt)
		reports = []*repro.Report{rep}
	case *titinLen > 0:
		q := seq.SyntheticTitin(*titinLen, 1)
		var rep *repro.Report
		rep, err = repro.Analyze(q.ID, q.String(), opt)
		reports = []*repro.Report{rep}
	case *inPath != "":
		f, ferr := os.Open(*inPath)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		reports, err = repro.AnalyzeFASTA(f, opt)
	default:
		reports, err = repro.AnalyzeFASTA(os.Stdin, opt)
	}
	if err != nil {
		fatal(err)
	}

	for _, rep := range reports {
		if err := repro.WriteReport(os.Stdout, rep); err != nil {
			fatal(err)
		}
		for i := 0; i < *showAln && i < len(rep.Tops); i++ {
			block, err := repro.FormatAlignment(rep.Residues, rep.Tops[i], 0)
			if err != nil {
				fatal(err)
			}
			fmt.Print(block)
		}
		if *stats {
			if pf := rep.Prefilter; pf != nil {
				fmt.Printf("  prefilter %s: k=%d kmers=%d dropped=%d pairs=%d segments=%d clusters=%d candidates=%d window-cells=%d (%.2f%% of pair space)\n",
					pf.Preset, pf.K, pf.Kmers, pf.DroppedKmers, pf.Pairs, pf.Segments,
					pf.Clusters, pf.Candidates, pf.WindowCells,
					100*float64(pf.WindowCells)/float64(pf.SequenceCells))
			}
			fmt.Printf("  stats: alignments=%d realignments=%d tracebacks=%d cells=%d shadow-ends=%d kernel-tier=%s lanes=%d\n",
				rep.Stats.Alignments, rep.Stats.Realignments, rep.Stats.Tracebacks,
				rep.Stats.Cells, rep.Stats.ShadowEnds, rep.Stats.KernelTier, rep.Stats.Lanes)
			if rep.Stats.RealignmentReduction > 0 {
				fmt.Printf("  queue heuristic avoided %.1f%% of potential realignments (paper: 90-97%%)\n",
					100*rep.Stats.RealignmentReduction)
			}
		}
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, opt.Metrics); err != nil {
			fatal(err)
		}
	}
}

// writeMetrics dumps the registry snapshot as one JSON document, to
// stdout when path is "-".
func writeMetrics(path string, reg *obs.Registry) error {
	doc := struct {
		Metrics obs.Snapshot `json:"metrics"`
	}{reg.Snapshot()}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return atomicfile.WriteFile(path, out, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprocli:", err)
	os.Exit(1)
}

package repeats

import "fmt"

// Consensus is a repeat family's per-column majority profile.
type Consensus struct {
	// Codes is the majority residue code per column of the unit.
	Codes []byte
	// Conservation is, per column, the fraction of copies agreeing with
	// the majority residue (1.0 = perfectly conserved).
	Conservation []float64
}

// MeanConservation averages the per-column conservation.
func (c Consensus) MeanConservation() float64 {
	if len(c.Conservation) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.Conservation {
		sum += v
	}
	return sum / float64(len(c.Conservation))
}

// DeriveConsensus builds a column-wise majority consensus for a family
// from the analysed sequence (residue codes, 1-based positions in the
// family's copies). Copies are stacked left-aligned; the consensus is as
// long as the family's median unit so stragglers from boundary slop do
// not distort it. The original Repro method builds a full profile from
// its top alignments; this majority profile is the same idea without
// per-column scoring, and is what the examples report as the repeat's
// "unit sequence".
//
// At least two copies are required.
func DeriveConsensus(s []byte, fam Family) (Consensus, error) {
	if len(fam.Copies) < 2 {
		return Consensus{}, fmt.Errorf("repeats: consensus needs >= 2 copies, have %d", len(fam.Copies))
	}
	unit := fam.UnitLen()
	if unit < 1 {
		return Consensus{}, fmt.Errorf("repeats: family has empty copies")
	}
	for _, c := range fam.Copies {
		if c.Start < 1 || c.End > len(s) {
			return Consensus{}, fmt.Errorf("repeats: copy %v outside sequence of length %d", c, len(s))
		}
	}
	cons := Consensus{
		Codes:        make([]byte, unit),
		Conservation: make([]float64, unit),
	}
	for col := 0; col < unit; col++ {
		var counts [256]int
		total := 0
		for _, c := range fam.Copies {
			pos := c.Start + col
			if pos > c.End {
				continue // shorter copy: no residue in this column
			}
			counts[s[pos-1]]++
			total++
		}
		if total == 0 {
			continue
		}
		// deterministic majority: highest count, lowest code on ties
		best := 0
		for code, n := range counts {
			if n > counts[best] {
				best = code
			}
		}
		cons.Codes[col] = byte(best)
		cons.Conservation[col] = float64(counts[best]) / float64(total)
	}
	return cons, nil
}

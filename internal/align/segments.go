package align

import (
	"math"

	"repro/internal/scoring"
	"repro/internal/triangle"
)

// Segmented rows: the int16 rung's layout for wide score passes
// (DESIGN.md section 17). The row scan puts neighbouring columns in the
// lanes and pays a 16-lane prefix scan for MaxX in every block; here
// lane j owns one contiguous segment of segs = ceil(n/16) columns,
// j*segs+1 .. j*segs+segs, and vector v holds column v+1 of every
// segment, so MaxX runs down each segment one vector at a time with no
// lane crossing, and only the carries between segments cross lanes,
// once per row (seg16). Buffers hold a slot vector and then the segs
// vectors; the columns past n, at the end of the last lanes, are
// computed like any other and never read, since no chain runs
// leftwards.

// segWidth is W*, the narrowest window whose int16 score passes run in
// segmented rows. Below it a segment is too short to pay for the per-row
// carry scan and the per-pass profile and residue layout: in the sweep
// of BenchmarkSegmentCrossover (EXPERIMENTS.md, "Wide windows in
// segmented rows"; 2.1 GHz AVX2 host) the row scan is ahead at 64
// columns on BLOSUM62 and at 128 on 100-row BLOSUM62 windows, and the
// segments are ahead on every shape from 256 columns on, by 1.1x
// (100 rows, BLOSUM62) to 2x. W* is that width, so every window the
// protein preset makes (about 125 wide) stays on the row scan.
const segWidth = 256

// segWidthOverride, when positive, replaces segWidth: the harnesses
// force segmented rows onto windows a few blocks wide.
var segWidthOverride int

// segmentedRows reports whether an int16 score pass over n columns runs
// in segmented rows.
func segmentedRows(n int) bool {
	if segWidthOverride > 0 {
		return n >= segWidthOverride
	}
	return n >= segWidth
}

// segConsts are seg16's per-model vectors, 16 int16 lanes each: open,
// ext, and segs*ext times 1, 2, 4 and 8 for the carry scan, each
// saturated at 32767, which still drives its candidate to 0 or below.
type segConsts [6][RowBlock]int16

// segModel is what seg16 reads besides the rows, for one scoring model
// and segment length: the constants and the ramp, (segs-1-v)*ext for
// every vector v but the last and 32767 there, saturated likewise and
// broadcast to a vector each.
type segModel struct {
	p    Params
	segs int
	k    segConsts
	ramp []int16
}

// set makes m the segModel of p and segs; it rebuilds nothing when
// both are the last call's.
func (m *segModel) set(p Params, segs int) {
	if m.p == p && m.segs == segs {
		return
	}
	sat := func(v int64) int16 { return int16(min(v, math.MaxInt16)) }
	open, ext := int64(p.Gap.Open), int64(p.Gap.Ext)
	m.p, m.segs = p, segs
	growI16(&m.ramp, segs*RowBlock)
	for i := 0; i < RowBlock; i++ {
		m.k[0][i], m.k[1][i] = sat(open), sat(ext)
		for s := 0; s < 4; s++ {
			m.k[2+s][i] = sat((int64(segs) << s) * ext)
		}
		for v := 0; v < segs; v++ {
			m.ramp[v*RowBlock+i] = sat(int64(segs-1-v) * ext)
		}
		m.ramp[(segs-1)*RowBlock+i] = math.MaxInt16
	}
}

// stripe lays the first n values of src out in segs segments, fill
// past n.
func stripe[D uint8 | int16, S uint8 | int16](dst []D, src []S, n, segs int, fill D) {
	for j := 0; j < RowBlock; j++ {
		lo := min(j*segs, n)
		at := j
		for _, v := range src[lo:min(lo+segs, n)] {
			dst[at] = D(v)
			at += RowBlock
		}
		for ; at < segs*RowBlock; at += RowBlock {
			dst[at] = fill
		}
	}
}

// unstripe is stripe's inverse for the first len(dst) columns.
func unstripe(dst []int32, src []int16, segs int) {
	for j, c := 0, 0; j < RowBlock; j++ {
		for v := 0; v < segs && c < len(dst); v, c = v+1, c+1 {
			dst[c] = int32(src[v*RowBlock+j])
		}
	}
}

// zeroMaskedSegs is zeroMasked for a segmented row of n columns. It
// reports whether the carries the kernel derived from the row are now
// stale: a cell it zeroed was not zero and either sat in the last
// vector, which the next row's slot copies, or was the largest term of
// its segment's chain end — the cell less ramp, against the chain ends
// the kernel left in ends.
func zeroMaskedSegs(cells []int16, segs int, tri *triangle.Triangle, i, j0, n int, ends *[RowBlock]int16, ramp []int16) (stale bool) {
	end := j0 + n
	for j := tri.NextSet(i, j0, end); j >= 0; j = tri.NextSet(i, j+1, end) {
		c := j - j0
		v, lane := c%segs, c/segs
		at := v*RowBlock + lane
		if x := int32(cells[at]); x != 0 {
			cells[at] = 0
			stale = stale || v == segs-1 || x-int32(ramp[at]) >= int32(ends[lane])
		}
	}
	return stale
}

// segProfile lays out the exchange values of each residue code of s1
// against columns h[x0:x0+n] in segments: one row of segs vectors per
// code, at code*segs*RowBlock. The columns' residues are put in segment
// order once; each row is then a table lookup a column — 16 at a time by
// byte shuffles (segProfileRow) when the model's values fit a byte and
// its codes two shuffle tables.
func (sc *Scratch) segProfile(exch *scoring.Matrix, s1, h []byte, x0, n, segs int) []int16 {
	size := segs * RowBlock
	codes := growU8(&sc.segCodes, size)
	stripe(codes, h[x0:x0+n], n, segs, 0)
	alpha := exch.Alphabet().Len()
	rows := growI16(&sc.segProf, alpha*size)
	shuffles := alpha <= 2*RowBlock && exch.MaxScore() <= math.MaxInt8 && exch.MinScore() >= math.MinInt8
	var done [256]bool
	for _, a := range s1 {
		if done[a] {
			continue
		}
		done[a] = true
		row := rows[int(a)*size : int(a)*size+size]
		ex := exch.Row(a)
		if shuffles {
			var tab segTable
			for c, v := range ex {
				tab[c/RowBlock][c%RowBlock] = int8(v)
			}
			for i := range tab[2] {
				tab[2][i] = RowBlock - 1
			}
			segProfileRow(&row[0], &codes[0], &tab, segs)
			continue
		}
		for i, c := range codes {
			row[i] = ex[c]
		}
	}
	return rows
}

// segTable is segProfileRow's lookup: the exchange values of codes 0..15
// and 16..31 as bytes, and 15 in every byte, for telling the two apart.
type segTable [3][RowBlock]int8

// handOverSegs is handOver for segmented rows: the byte rung's state at
// the flagged row goes into the segmented buffers, for rowsSegs to
// carry on from.
func (sc *Scratch) handOverSegs(n int) {
	segs := (n + RowBlock - 1) / RowBlock
	stripe(growI16(&sc.segPrev, RowBlock*(segs+1))[RowBlock:], sc.prev8[2:2+n], n, segs, 0)
	stripe(growI16(&sc.segMaxY, RowBlock*segs), sc.maxY8[:n], n, segs, 0)
}

// rowsSegs is rows16 in segmented rows, for score passes: it runs every
// row of the matrix of s1 against columns h[x0:x0+n] and writes the
// bottom row into bottom. It starts from the zero boundary row or, when
// resume is set, from the state handOverSegs left. Unmasked, the pass
// is one kernel call; masked, one call a row, the kernel told to rebuild
// its carries whenever the mask made them stale (zeroMaskedSegs).
func (sc *Scratch) rowsSegs(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int, resume bool, bottom []int32) {
	segs := (n + RowBlock - 1) / RowBlock
	prev := growI16(&sc.segPrev, RowBlock*(segs+1))
	cur := growI16(&sc.segCur, RowBlock*(segs+1))
	maxY := growI16(&sc.segMaxY, RowBlock*segs)
	if !resume {
		clear(prev)
		for i := range maxY {
			maxY[i] = NegInf16
		}
	}
	ex := sc.segProfile(p.Exch, s1, h, x0, n, segs)
	sc.segModel.set(p, segs)
	m := &sc.segModel
	stride := 2 * segs * RowBlock
	if tri == nil && len(s1) > 0 {
		seg16(&prev[0], &cur[0], &maxY[0], &ex[0], &s1[0], len(s1), stride, segs, &sc.segCarry[0][0], &m.ramp[0], &m.k, true)
		if len(s1)%2 == 1 {
			prev, cur = cur, prev // the kernel swapped after every row: the bottom row is in cur
		}
	} else {
		redo := true
		for y := 1; y <= len(s1); y++ {
			seg16(&prev[0], &cur[0], &maxY[0], &ex[0], &s1[y-1], 1, stride, segs, &sc.segCarry[0][0], &m.ramp[0], &m.k, redo)
			redo = zeroMaskedSegs(cur[RowBlock:], segs, tri, dy+y, dx+1, n, &sc.segCarry[1], m.ramp)
			prev, cur = cur, prev
			sc.ck.keepSegs(dy+y, segs, prev[RowBlock:], maxY)
		}
	}
	sc.segPrev, sc.segCur = prev, cur // keep the swap so reuse stays coherent
	unstripe(bottom, prev[RowBlock:], segs)
}

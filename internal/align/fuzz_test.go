package align

import (
	"math/rand/v2"
	"testing"

	"repro/internal/triangle"
)

// FuzzScoreWindow drives the windowed kernels over arbitrary rectangles
// and five kinds of override triangle — none, sparse, dense, the residue
// pairs of an alignment accepted inside the window (the diagonal runs the
// engine's own masks consist of), and hits on the window's maskColumns
// in rows chosen so that a marked row sits directly above and below
// clean ones — against the naiveWindow oracle. raw supplies the residues; the remaining arguments are folded
// into a valid Rect, so every input the fuzzer invents is a legal call.
// The seed corpus below runs under plain `go test`.
func FuzzScoreWindow(f *testing.F) {
	repeat := []byte("MKVLAAGIWQRSTMKVLAAGIWQRSTMKVIAAGLWQKSTPEMKVLAAGIWQRST")
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(repeat, uint16(0), uint16(25), uint16(0), uint16(60), kind, uint64(kind))   // a whole split
		f.Add(repeat, uint16(3), uint16(11), uint16(4), uint16(17), kind, uint64(7+kind)) // an interior window
		f.Add(repeat[:9], uint16(7), uint16(0), uint16(0), uint16(0), kind, uint64(1))    // one cell
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(1), uint16(2), uint16(0), uint16(9), uint8(2), uint64(3)) // homopolymer

	f.Fuzz(func(t *testing.T, raw []byte, y0, h, gap, wd uint16, kind uint8, maskSeed uint64) {
		p := windowParams(t)
		s, w, ok := fuzzWindow(t, raw, p, y0, h, gap, wd)
		if !ok {
			return
		}
		checkWindow(t, p, s, w, fuzzMask(t, p, s, w, kind, maskSeed))
	})
}

// fuzzWindow folds fuzz arguments into residues of p's alphabet and a
// valid window over them; ok is false when raw is too short.
func fuzzWindow(t *testing.T, raw []byte, p Params, y0, h, gap, wd uint16) (s []byte, w Rect, ok bool) {
	// The oracle is O(HW(H+W)): bound the sequence, not the shapes.
	if len(raw) > 64 {
		raw = raw[:64]
	}
	m := len(raw)
	if m < 2 {
		return nil, w, false
	}
	k := p.Exch.Alphabet().Len()
	s = make([]byte, m)
	for i, b := range raw {
		s[i] = b % byte(k)
	}
	w.Y0 = 1 + int(y0)%(m-1)
	w.Y1 = w.Y0 + int(h)%(m-w.Y0)
	w.X0 = w.Y1 + 1 + int(gap)%(m-w.Y1)
	w.X1 = w.X0 + int(wd)%(m-w.X0+1)
	if err := w.Validate(m); err != nil {
		t.Fatalf("folded an invalid window: %v", err)
	}
	return s, w, true
}

// fuzzMask builds the override triangle of the given kind (mod 5) for
// window w of s: none (nil), sparse, dense, the window's own best
// unmasked path, or hits on the window's maskColumns in random rows.
func fuzzMask(t *testing.T, p Params, s []byte, w Rect, kind uint8, seed uint64) *triangle.Triangle {
	m := len(s)
	var tri *triangle.Triangle
	rng := rand.New(rand.NewPCG(seed, 17))
	randomPairs := func(n int) {
		tri = triangle.New(m)
		for ; n > 0; n-- {
			i := 1 + rng.IntN(m-1)
			tri.Set(i, i+1+rng.IntN(m-i))
		}
	}
	switch kind % 5 {
	case 1:
		randomPairs(m / 4)
	case 2:
		randomPairs(m * m / 4)
	case 3:
		tri = triangle.New(m)
		var sc Scratch
		mtx := matrixWindow(&sc, p, s, w, nil)
		if endX, _, _ := BestValidEnd(mtx[w.H()][1:], nil); endX > 0 {
			a, err := tracebackWindow(&sc, p, mtx, s, w, nil, endX)
			if err != nil {
				t.Fatalf("unmasked traceback in %+v: %v", w, err)
			}
			for _, pr := range a.Pairs {
				tri.Set(w.Y0-1+pr.Y, w.X0-1+pr.X)
			}
		}
	case 4:
		tri = triangle.New(m)
		for y := w.Y0; y <= w.Y1; y++ {
			if rng.IntN(3) == 0 {
				continue // a clean row between marked ones
			}
			for _, c := range maskColumns(w.W()) {
				tri.Set(y, w.X0-1+c)
			}
		}
	}
	return tri
}

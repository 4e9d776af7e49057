package triangle

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// runOps interprets data as a program over a family of triangles — the
// sparse Triangle and the dense oracle side by side — and fails on the
// first answer they disagree on. Four bytes make one instruction: an
// opcode, a triangle of the family, and two operands. Clone grows the
// family (up to four members, then replaces one), so later writes land
// on triangles whose rows are shared with snapshots, and every snapshot
// is re-checked cell by cell at the end: a Set that wrote into a shared
// list would show there.
func runOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	m := 2 + int(data[0])%39
	type pair struct {
		s *Triangle
		d *dense
	}
	fam := []pair{{New(m), newDense(m)}}
	// col spreads an operand over -2..m+3: left of every diagonal, past m.
	col := func(b byte) int { return int(b)%(m+6) - 2 }
	for pc := 1; pc+4 <= len(data); pc += 4 {
		op, k, a, b := data[pc]%7, int(data[pc+1])%len(fam), data[pc+2], data[pc+3]
		p := fam[k]
		i := 1 + int(a)%(m-1)     // a row that has pairs
		j := i + 1 + int(b)%(m-i) // a valid column of it
		switch op {
		case 0:
			p.s.Set(i, j)
			p.d.Set(i, j)
		case 1:
			if got, want := p.s.Get(i, j), p.d.Get(i, j); got != want {
				t.Fatalf("op %d: Get(%d,%d) = %v, dense %v", pc/4, i, j, got, want)
			}
		case 2:
			// any row 0..m, any range: empty, reversed, left of the diagonal
			i, from := int(a)%(m+1), col(b)
			to := from + int(data[pc+1]>>2)%(m+6) - 1
			if got, want := p.s.NextSet(i, from, to), p.d.NextSet(i, from, to); got != want {
				t.Fatalf("op %d: NextSet(%d,%d,%d) = %d, dense %d", pc/4, i, from, to, got, want)
			}
		case 3:
			c := pair{p.s.Clone(), p.d.Clone()}
			if len(fam) < 4 {
				fam = append(fam, c)
			} else {
				fam[1+int(a)%3] = c
			}
		case 4:
			o := fam[int(a)%len(fam)]
			if got, want := p.s.Equal(o.s), p.d.Equal(o.d); got != want {
				t.Fatalf("op %d: Equal = %v, dense %v", pc/4, got, want)
			}
		case 5:
			// a row denser than any run makes it: a block of columns, set
			// from the right so every insert lands at the list's front
			for jj := min(m, j+int(b)%8); jj > i; jj-- {
				p.s.Set(i, jj)
				p.d.Set(i, jj)
			}
		case 6:
			if got, want := p.s.Count(), p.d.count; got != want {
				t.Fatalf("op %d: Count = %d, dense %d", pc/4, got, want)
			}
		}
	}
	for k, p := range fam {
		if p.s.Count() != p.d.count {
			t.Fatalf("triangle %d: Count = %d, dense %d", k, p.s.Count(), p.d.count)
		}
		for i := 1; i < m; i++ {
			for j := i + 1; j <= m; j++ {
				if p.s.Get(i, j) != p.d.Get(i, j) {
					t.Fatalf("triangle %d: pair (%d,%d) is %v, dense %v", k, i, j, p.s.Get(i, j), p.d.Get(i, j))
				}
			}
		}
	}
}

// TestAgainstDense drives both structures with seeded random programs.
func TestAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	for n := 0; n < 400; n++ {
		data := make([]byte, 1+4*rng.IntN(200))
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		runOps(t, data)
	}
}

func FuzzTriangleOps(f *testing.F) {
	f.Add([]byte{5, 0, 0, 2, 3, 2, 0, 2, 0, 3, 0, 0, 0, 0, 1, 2, 4, 2, 0, 1, 0})
	f.Add([]byte{38, 5, 0, 7, 7, 3, 0, 0, 0, 5, 0, 7, 3, 2, 255, 7, 0, 6, 1, 0, 0})
	f.Fuzz(runOps)
}

// TestSnapshotIsolation is the contract the parallel schedulers lean on:
// readers walk a Clone with no lock while the owner keeps setting pairs
// in the original — in rows whose lists the snapshot shares — and the
// snapshot's answers never change. Each round snapshots the state the
// previous round's writes left, so lists of every age get shared. Run
// under -race it also shows that no Set writes memory a snapshot can
// reach.
func TestSnapshotIsolation(t *testing.T) {
	const m, rounds = 300, 4
	tr := New(m)
	for i := 1; i < m; i += 3 {
		tr.Set(i, i+1+(i*7)%(m-i))
	}
	walk := func(tr *Triangle) (cols []int) {
		for i := 1; i < m; i++ {
			for j := tr.NextSet(i, 0, m+1); j >= 0; j = tr.NextSet(i, j+1, m+1) {
				cols = append(cols, i*(m+1)+j)
			}
		}
		return cols
	}
	for round := 0; round < rounds; round++ {
		snap, before := tr.Clone(), tr.Count()
		want := walk(snap)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if got := walk(snap); !slices.Equal(got, want) {
						t.Errorf("round %d: snapshot changed under a writer", round)
						return
					}
				}
			}()
		}
		// the owner marks a column near the front and the back of every row
		for i := 1; i < m-2*rounds; i++ {
			tr.Set(i, i+1+round)
			tr.Set(i, m-round)
		}
		close(done)
		wg.Wait()
		if snap.Count() != before || tr.Count() <= before {
			t.Errorf("round %d: counts: snapshot %d (was %d), original %d", round, snap.Count(), before, tr.Count())
		}
	}
}

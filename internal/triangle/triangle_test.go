package triangle

import (
	"testing"
	"testing/quick"
)

func TestIndexLayout(t *testing.T) {
	m := 7
	tr := New(m)
	// Row-major by i: (1,2),(1,3)...(1,7),(2,3)...(2,7),(3,4)...
	want := 0
	for i := 1; i < m; i++ {
		if off := tr.RowOffset(i); off != want {
			t.Fatalf("RowOffset(%d) = %d, want %d", i, off, want)
		}
		for j := i + 1; j <= m; j++ {
			if idx := tr.Index(i, j); idx != want {
				t.Fatalf("Index(%d,%d) = %d, want %d", i, j, idx, want)
			}
			want++
		}
	}
	if want != tr.Pairs() {
		t.Fatalf("enumerated %d pairs, Pairs() = %d", want, tr.Pairs())
	}
}

func TestSetGet(t *testing.T) {
	tr := New(10)
	tr.Set(3, 7)
	tr.Set(1, 2)
	tr.Set(9, 10)
	if !tr.Get(3, 7) || !tr.Get(1, 2) || !tr.Get(9, 10) {
		t.Error("set pairs not reported as set")
	}
	if tr.Get(3, 8) || tr.Get(2, 7) {
		t.Error("unset pairs reported as set")
	}
	if tr.Count() != 3 {
		t.Errorf("Count = %d, want 3", tr.Count())
	}
	tr.Set(3, 7) // idempotent
	if tr.Count() != 3 {
		t.Errorf("Count after duplicate Set = %d, want 3", tr.Count())
	}
}

func TestIndexPanicsOnBadPair(t *testing.T) {
	tr := New(5)
	for _, p := range [][2]int{{0, 1}, {2, 2}, {3, 2}, {1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d,%d) did not panic", p[0], p[1])
				}
			}()
			tr.Index(p[0], p[1])
		}()
	}
}

func TestGetAtMatchesGet(t *testing.T) {
	tr := New(50)
	tr.Set(10, 20)
	tr.Set(10, 21)
	tr.Set(49, 50)
	f := func(a, b uint8) bool {
		i := 1 + int(a)%49
		j := i + 1 + int(b)%(50-i)
		return tr.GetAt(tr.Index(i, j)) == tr.Get(i, j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NextSet agrees with a naive scan for random bit patterns and
// random ranges, including empty ranges and ranges spanning several
// words.
func TestNextSetProperty(t *testing.T) {
	tr := New(40) // 780 pairs, ~13 words
	setIdx := map[int]bool{}
	// set a scattering of pairs
	for _, p := range [][2]int{{1, 2}, {3, 30}, {10, 11}, {20, 40}, {39, 40}, {5, 25}} {
		tr.Set(p[0], p[1])
		setIdx[tr.Index(p[0], p[1])] = true
	}
	f := func(a, b uint16) bool {
		from := int(a) % tr.Pairs()
		to := from + int(b)%(tr.Pairs()-from+1)
		naive := -1
		for k := from; k < to; k++ {
			if setIdx[k] {
				naive = k
				break
			}
		}
		return tr.NextSet(from, to) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if got := New(100).NextSet(0, 4950); got != -1 {
		t.Errorf("fresh triangle: NextSet = %d, want -1", got)
	}
}

func TestCloneAndEqual(t *testing.T) {
	tr := New(20)
	tr.Set(1, 5)
	tr.Set(7, 19)
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatal("clone not equal to original")
	}
	cp.Set(2, 3)
	if tr.Equal(cp) {
		t.Error("mutating clone affected equality with original")
	}
	if tr.Get(2, 3) {
		t.Error("mutating clone affected original")
	}
	if tr.Equal(New(21)) {
		t.Error("triangles of different m reported equal")
	}
}

func TestRowStore(t *testing.T) {
	s := NewRowStore(10)
	if _, ok := s.Get(3); ok {
		t.Error("Get on empty store returned a row")
	}
	row := []int32{5, 0, 3, 9, 1, 2, 7}
	s.Put(3, row)
	got, ok := s.Get(3)
	if !ok {
		t.Fatal("stored row not found")
	}
	row[0] = 99 // Put must copy
	if got[0] != 5 {
		t.Error("Put did not copy the row")
	}
	// second Put is ignored
	s.Put(3, []int32{0, 0, 0, 0, 0, 0, 0})
	got, _ = s.Get(3)
	if got[2] != 3 {
		t.Error("second Put overwrote the original row")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if s.Bytes() != 28 {
		t.Errorf("Bytes = %d, want 28", s.Bytes())
	}
	if _, ok := s.Get(0); ok {
		t.Error("Get(0) returned a row")
	}
}

func TestRowStorePanics(t *testing.T) {
	s := NewRowStore(5)
	for _, c := range []struct {
		r   int
		row []int32
	}{
		{0, []int32{1, 2, 3, 4, 5}},
		{5, []int32{}},
		{2, []int32{1, 2}}, // wrong length, want 3
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%d, len %d) did not panic", c.r, len(c.row))
				}
			}()
			s.Put(c.r, c.row)
		}()
	}
}

package triangle

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestRowLayout pins what the kernels and the memory formula rely on:
// a row's marked columns are kept ascending whatever order they were set
// in, a clean row costs nothing beyond its header, and walking every row
// with NextSet enumerates each marked pair exactly once, row-major.
func TestRowLayout(t *testing.T) {
	m := 7
	tr := New(m)
	set := [][2]int{{2, 7}, {2, 3}, {5, 6}, {2, 5}, {1, 7}, {2, 5}}
	for _, p := range set {
		tr.Set(p[0], p[1])
	}
	if len(tr.rows) != m+1 {
		t.Fatalf("%d row headers, want m+1 = %d", len(tr.rows), m+1)
	}
	want := [][2]int{{1, 7}, {2, 3}, {2, 5}, {2, 7}, {5, 6}}
	var got [][2]int
	for i := 0; i <= m; i++ {
		if !slices.IsSorted(tr.rows[i]) {
			t.Errorf("row %d not ascending: %v", i, tr.rows[i])
		}
		for j := tr.NextSet(i, 0, m+1); j >= 0; j = tr.NextSet(i, j+1, m+1) {
			got = append(got, [2]int{i, j})
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("enumerated %v, want %v", got, want)
	}
	if tr.Count() != len(want) {
		t.Errorf("Count = %d, want %d", tr.Count(), len(want))
	}
	for _, i := range []int{0, 3, 4, 6, 7} {
		if tr.rows[i] != nil {
			t.Errorf("clean row %d holds a list", i)
		}
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

func TestBadPairPanics(t *testing.T) {
	tr := New(5)
	for _, p := range [][2]int{{0, 1}, {2, 2}, {3, 2}, {1, 6}} {
		for name, f := range map[string]func(){
			"Set": func() { tr.Set(p[0], p[1]) },
			"Get": func() { tr.Get(p[0], p[1]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d,%d) did not panic", name, p[0], p[1])
					}
				}()
				f()
			}()
		}
	}
	if tr.Count() != 0 {
		t.Errorf("rejected pairs were counted: Count = %d", tr.Count())
	}
}

// A pair is marked exactly when it is its own row's next set column.
func TestGetMatchesNextSet(t *testing.T) {
	tr := New(50)
	tr.Set(10, 20)
	tr.Set(10, 21)
	tr.Set(49, 50)
	f := func(a, b uint8) bool {
		i := 1 + int(a)%49
		j := i + 1 + int(b)%(50-i)
		return tr.Get(i, j) == (tr.NextSet(i, j, j+1) == j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !tr.Get(10, 21) || tr.Get(10, 22) || tr.Get(11, 20) {
		t.Error("Get disagrees with what was set")
	}
}

// Property: NextSet agrees with a naive scan over the set pairs for
// random rows and random column ranges, including empty ranges, ranges
// that start at or left of the diagonal and ranges past column m.
func TestNextSetProperty(t *testing.T) {
	const m = 40
	tr := New(m)
	set := map[[2]int]bool{}
	for _, p := range [][2]int{{1, 2}, {3, 30}, {3, 4}, {3, 40}, {10, 11}, {20, 40}, {39, 40}, {5, 25}} {
		tr.Set(p[0], p[1])
		set[p] = true
	}
	f := func(a uint8, b, c int8) bool {
		i := int(a) % (m + 1)
		from := int(b) % (m + 4) // negative, left of the diagonal, past m
		to := from + int(c)%(m+4)
		naive := -1
		for j := max(from, 0); j < to; j++ {
			if set[[2]int{i, j}] {
				naive = j
				break
			}
		}
		return tr.NextSet(i, from, to) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if got := New(100).NextSet(1, 2, 101); got != -1 {
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
	// same count, same rows touched, different pairs
	a, b := New(20), New(20)
	a.Set(1, 5)
	b.Set(1, 6)
	if a.Equal(b) {
		t.Error("triangles marking different pairs reported equal")
	}
	// the same pairs set in another order, through a clone
	c := New(20)
	c.Set(7, 19)
	c = c.Clone()
	c.Set(1, 5)
	if !tr.Equal(c) || !c.Equal(tr) {
		t.Error("triangles marking the same pairs reported unequal")
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
	// Adopt keeps the row it is handed, and ignores a second one as Put does
	kept := []int32{4, 4, 4, 4, 4}
	s.Adopt(5, kept)
	s.Adopt(5, []int32{0, 0, 0, 0, 0})
	if got, _ := s.Get(5); &got[0] != &kept[0] {
		t.Error("Adopt did not keep the row it was handed")
	}
	if _, ok := s.Get(0); ok {
		t.Error("Get(0) returned a row")
	}
	if _, ok := s.Get(10); ok {
		t.Error("Get(m) returned a row")
	}
}

// Rows carved from one slab must not reach each other: a kept row has no
// spare capacity to append into, and later rows leave earlier ones alone,
// across a chunk boundary and for a row longer than a chunk.
func TestRowStoreSlabs(t *testing.T) {
	s := NewSlab(1000)
	var kept [][]int32
	sizes := []int{3, slabChunk - 10, 20, 2 * slabChunk, 1, 7}
	for k, n := range sizes {
		row := make([]int32, n)
		for i := range row {
			row[i] = int32(k + 1)
		}
		kept = append(kept, s.Keep(row))
	}
	for k, row := range kept {
		if len(row) != sizes[k] || cap(row) != len(row) {
			t.Errorf("row %d: len %d cap %d, want %d and no spare capacity", k, len(row), cap(row), sizes[k])
		}
		for i, v := range row {
			if v != int32(k+1) {
				t.Fatalf("row %d entry %d overwritten: %d", k, i, v)
			}
		}
	}
	// the split-row table appears with the first Put, and a tiny
	// sequence does not pay for a whole chunk
	small := NewRowStore(4)
	if small.rows != nil {
		t.Error("split-row table allocated before the first Put")
	}
	small.Put(1, []int32{1, 2, 3})
	if cap(small.slab.buf) != 6 {
		t.Errorf("m=4 slab holds %d entries, want m(m-1)/2 = 6", cap(small.slab.buf))
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

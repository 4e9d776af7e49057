package triangle

import "testing"

var (
	sinkBool bool
	sinkInt  int
)

func BenchmarkGetAt(b *testing.B) {
	tr := New(4096)
	tr.Set(100, 2000)
	idx := tr.Index(100, 2000)
	for i := 0; i < b.N; i++ {
		sinkBool = tr.GetAt(idx)
	}
}

// BenchmarkNextSet is what the kernels pay per clean matrix row: one
// scan of the row's 2000-column index range that finds nothing.
func BenchmarkNextSet(b *testing.B) {
	tr := New(4096)
	tr.Set(4000, 4090) // far from the probed row
	from := tr.RowOffset(100)
	for i := 0; i < b.N; i++ {
		sinkInt = tr.NextSet(from, from+2000)
	}
}

func BenchmarkClone(b *testing.B) {
	tr := New(4096)
	for i := 1; i < 100; i++ {
		tr.Set(i, i+1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Clone()
	}
}

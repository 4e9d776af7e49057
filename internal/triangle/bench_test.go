package triangle

import "testing"

var (
	sinkBool bool
	sinkInt  int
	sinkTri  *Triangle
)

// benchTops marks a triangle the way a run of tops accepted alignments
// does: each a diagonal path of length pathLen, one pair per row, the
// paths overlapping in rows so that marked rows hold up to tops columns.
func benchTops(m, tops, pathLen int) *Triangle {
	tr := New(m)
	for k := 0; k < tops; k++ {
		for d := 0; d < pathLen; d++ {
			tr.Set(100+d, 1000+97*k+d)
		}
	}
	return tr
}

func BenchmarkGet(b *testing.B) {
	tr := benchTops(4096, 25, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = tr.Get(200, 1100+97*12)
	}
}

// BenchmarkNextSet is what the kernels pay per matrix row over a
// 2000-column range: on a clean row (nearly every row of a run) a scan
// that finds nothing, on a marked row the walk zeroMasked does — one
// call per hit — over a row holding 25 columns.
func BenchmarkNextSet(b *testing.B) {
	tr := benchTops(4096, 25, 300)
	b.Run("clean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt = tr.NextSet(50, 900, 2900)
		}
	})
	b.Run("marked25", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := tr.NextSet(200, 900, 2900); j >= 0; j = tr.NextSet(200, j+1, 2900) {
				sinkInt = j
			}
		}
	})
}

// BenchmarkNew and BenchmarkClone are the O(m) claims as numbers, at the
// prefilter-protein workload's length: one header table each (1.4 MB),
// where the bitset was 225 MB allocated and zeroed, or copied.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTri = New(60000)
	}
}

func BenchmarkClone(b *testing.B) {
	tr := benchTops(60000, 25, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTri = tr.Clone()
	}
}

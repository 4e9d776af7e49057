package triangle

import (
	"fmt"
	"sync"
)

// RowStore holds the bottom row of each task's first alignment (computed
// with an empty override triangle). These original rows are the reference
// for shadow-alignment rejection: on realignment, a bottom-row cell is a
// valid alignment ending only if its value equals the stored original.
//
// Storing every split's row needs m(m-1)/2 int32 entries in total (the
// paper's largest data structure: 2.4 GB for full-length titin, half
// that as the paper's shorts), so nothing is sized up front: rows come
// in as tasks are first aligned — copied into chunked slabs the store
// owns (Put), or handed over from the slab of the goroutine that computed
// them (Adopt) — and the m-entry table of split rows appears with the
// first row. Windows keep their rows in those goroutines' slabs and never
// reach the store. RowStore is safe for concurrent use; in the
// distributed runner the master owns the full store and slaves keep a
// RowStore as an on-demand cache.
type RowStore struct {
	mu   sync.RWMutex
	m    int
	rows [][]int32 // indexed by split r (1..m-1); rows[r] has m-r entries
	slab Slab      // where Put copies rows to
}

// slabChunk is the slab granule in entries (256 KB), less for a sequence
// whose split rows all fit in less. A row longer than a chunk gets a
// slab of its own.
const slabChunk = 1 << 16

// NewRowStore returns an empty store for sequence length m.
func NewRowStore(m int) *RowStore {
	if m < 2 {
		panic(fmt.Sprintf("triangle: sequence length %d too short", m))
	}
	return &RowStore{m: m, slab: NewSlab(m)}
}

// Slab carves rows out of chunked memory: a row is written once and
// lives as long as whoever holds it, so there is no free list. A Slab is
// for one goroutine at a time — a RowStore keeps one under its lock, and
// each goroutine of a windowed run keeps the window rows it computes in
// its own, so that they never wait on each other.
type Slab struct {
	chunk int     // the granule in entries
	buf   []int32 // the current chunk; its spare capacity is what Keep carves
}

// NewSlab returns an empty slab for the rows of a sequence of length m.
func NewSlab(m int) Slab {
	return Slab{chunk: min(slabChunk, max(1, m*(m-1)/2))}
}

// Keep copies row into the slab and returns the copy, which has no spare
// capacity to append into.
func (s *Slab) Keep(row []int32) []int32 {
	if len(row) > cap(s.buf)-len(s.buf) {
		s.buf = make([]int32, 0, max(s.chunk, len(row)))
	}
	at := len(s.buf)
	s.buf = append(s.buf, row...)
	return s.buf[at:len(s.buf):len(s.buf)]
}

// Put stores the original bottom row for split r, copying the input.
// A second Put for the same split is ignored: the original row never
// changes once computed (the paper computes it exactly once, with the
// empty triangle).
func (s *RowStore) Put(r int, row []int32) { s.put(r, row, true) }

// Adopt stores row as split r's original row without copying it: the
// caller hands it over and never writes it again — a row a goroutine kept
// in its own Slab. Like Put, it ignores a second row for the same split.
func (s *RowStore) Adopt(r int, row []int32) { s.put(r, row, false) }

func (s *RowStore) put(r int, row []int32, copyRow bool) {
	if r < 1 || r >= s.m {
		panic(fmt.Sprintf("triangle: split %d out of range for m=%d", r, s.m))
	}
	if len(row) != s.m-r {
		panic(fmt.Sprintf("triangle: split %d row has %d entries, want %d", r, len(row), s.m-r))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rows == nil {
		s.rows = make([][]int32, s.m)
	}
	if s.rows[r] == nil {
		if copyRow {
			row = s.slab.Keep(row)
		}
		s.rows[r] = row
	}
}

// Get returns the stored row for split r, or (nil, false) if the split
// has not been aligned yet. The returned slice must not be modified.
func (s *RowStore) Get(r int) ([]int32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r < 1 || r >= len(s.rows) {
		return nil, false
	}
	row := s.rows[r]
	return row, row != nil
}

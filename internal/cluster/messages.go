// Package cluster implements the distributed-memory level of the
// paper's parallelisation (Section 4.3) on top of the mpi runtime:
// rank 0 is a sacrificed master that owns the task queue, the override
// triangle, and the original-bottom-row store; the other ranks are
// slaves that realign splits against a local triangle replica, caching
// original rows fetched from the master on demand. Each slave process
// may run several worker threads sharing its replica and row cache — the
// paper's "cluster of SMPs" configuration.
package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/obs/trace"
	"repro/internal/topalign"
)

// Protocol tags.
const (
	tagSetup   mpi.Tag = 1 // master -> slave: sequence + scoring config
	tagReady   mpi.Tag = 2 // slave -> master: one worker slot is idle
	tagJob     mpi.Tag = 3 // master -> slave: align a split (or group)
	tagResult  mpi.Tag = 4 // slave -> master: scores (+ rows when first)
	tagTop     mpi.Tag = 5 // master -> slaves: new top alignment's pairs
	tagRowReq  mpi.Tag = 6 // slave -> master: need original row for r
	tagRow     mpi.Tag = 7 // master -> slave: original row for r
	tagStop    mpi.Tag = 8 // master -> slaves: shut down
	tagRefused mpi.Tag = 9 // slave -> master: setup rejected (bad config)
)

// msgSetup carries everything a slave needs to start working. Trace,
// when non-zero, is the request's trace ID: the run is traced, and the
// slave records per-job spans and ships them back with each result.
type msgSetup struct {
	Seq     []byte
	Matrix  string // embedded exchange-matrix name (scoring.ByName)
	GapOpen int32
	GapExt  int32
	Lanes   uint8 // 1, 4, 8, or 16 (the master's resolved GroupLanes)
	Trace   trace.TraceID
}

// msgJob assigns one task. R is the split (scalar) or the group's first
// split (group mode). First marks a task that has never been aligned:
// the slave must align against the empty triangle and return the bottom
// row(s) for the master's row store. Span, when non-zero, is the
// master-side dispatch span: the slave parents its job span under it so
// the request's trace crosses the process boundary.
type msgJob struct {
	R     int32
	First bool
	Span  trace.SpanID
}

// msgResult reports a completed task: the state Engine.Realign left the
// slave's copy of the task in, and the topalign.Work it returned.
// Version is the task's new AlignedWith stamp — the replica version the
// scores are exact for, 0 for a first alignment. Scores has one entry at
// one lane, Lanes entries in group mode. Rows is non-nil only for first
// alignments: the original bottom row per member. The Work (First, Tier,
// Rerun, ShadowEnds, and Nanos: kernel wall time, excluding row fetches)
// is what the master hands to Engine.Count; its Wasted stays home, since
// only window passes, which no slave runs, can waste cells.
//
// Spans, when non-empty, is the OBT1-encoded batch of spans the slave
// recorded for this job, with Start times on the slave's local
// monotonic timeline; SlaveNow is that timeline's value at encode time,
// so the master can re-base the spans onto its own timeline using the
// link round-trip time (see master.absorbSpans).
// CPUNanos is the worker thread's CPU time for the job (thread clock,
// so row-fetch waits cost nothing), folded into the request's Usage
// record like the Work, crossing the process boundary like Spans.
type msgResult struct {
	R       int32
	Version int32
	topalign.Work
	SlaveNow int64
	Scores   []int32
	Rows     [][]int32
	Spans    []byte
	CPUNanos int64
}

// msgTop broadcasts an accepted top alignment: the replica version it
// creates and the matched pairs to mark.
type msgTop struct {
	Version int32
	PairsI  []int32
	PairsJ  []int32
}

// msgRow answers a row request.
type msgRow struct {
	R   int32
	Row []int32
}

// --- encoding helpers (little-endian, length-prefixed slices) ---

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// appendI32s appends vs with its length, growing b once: a row is
// thousands of values, and growing by append per value cost the master
// a dozen allocations per row it served.
func appendI32s(b []byte, vs []int32) []byte {
	b = slices.Grow(b, 4+4*len(vs))
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = fmt.Errorf("cluster: truncated message at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) i32s() []int32 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+4*n > len(r.b) {
		r.err = fmt.Errorf("cluster: slice length %d exceeds message", n)
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("cluster: byte slice length %d exceeds message", n)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}

func (r *reader) bool() bool { return r.u32() != 0 }

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU32(b, 1)
	}
	return appendU32(b, 0)
}

func appendBytes(b, data []byte) []byte {
	b = appendU32(b, uint32(len(data)))
	return append(b, data...)
}

// appendU64 and (r *reader).u64 carry 64-bit values as two u32 halves,
// matching the codec's 4-byte granularity.
func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

func (r *reader) u64() uint64 {
	lo, hi := r.u32(), r.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (m msgSetup) encode() []byte {
	b := appendBytes(nil, m.Seq)
	b = appendBytes(b, []byte(m.Matrix))
	b = appendU32(b, uint32(m.GapOpen))
	b = appendU32(b, uint32(m.GapExt))
	b = appendU32(b, uint32(m.Lanes))
	b = appendBytes(b, m.Trace[:])
	return b
}

func decodeSetup(b []byte) (msgSetup, error) {
	r := &reader{b: b}
	m := msgSetup{
		Seq:    r.bytes(),
		Matrix: string(r.bytes()),
	}
	m.GapOpen = r.i32()
	m.GapExt = r.i32()
	m.Lanes = uint8(r.u32())
	if tr := r.bytes(); r.err == nil {
		if len(tr) != len(m.Trace) {
			return m, fmt.Errorf("cluster: setup trace ID has %d bytes, want %d", len(tr), len(m.Trace))
		}
		copy(m.Trace[:], tr)
	}
	return m, r.err
}

func (m msgJob) encode() []byte {
	b := appendU32(nil, uint32(m.R))
	b = appendBool(b, m.First)
	return appendBytes(b, m.Span[:])
}

func decodeJob(b []byte) (msgJob, error) {
	r := &reader{b: b}
	m := msgJob{R: r.i32(), First: r.bool()}
	if sp := r.bytes(); r.err == nil {
		if len(sp) != len(m.Span) {
			return m, fmt.Errorf("cluster: job span ID has %d bytes, want %d", len(sp), len(m.Span))
		}
		copy(m.Span[:], sp)
	}
	return m, r.err
}

func (m msgResult) encode() []byte {
	b := appendU32(nil, uint32(m.R))
	b = appendU32(b, uint32(m.Version))
	b = appendBool(b, m.First)
	b = appendU64(b, uint64(m.Nanos))
	b = appendI32s(b, m.Scores)
	b = appendU32(b, uint32(len(m.Rows)))
	for _, row := range m.Rows {
		b = appendI32s(b, row)
	}
	b = appendU64(b, uint64(m.SlaveNow))
	b = appendBytes(b, m.Spans)
	b = appendU64(b, uint64(m.CPUNanos))
	b = appendU32(b, uint32(m.Tier))
	b = appendBool(b, m.Rerun)
	b = appendU64(b, uint64(m.ShadowEnds))
	return b
}

func decodeResult(b []byte) (msgResult, error) {
	r := &reader{b: b}
	m := msgResult{R: r.i32(), Version: r.i32()}
	m.First = r.bool()
	m.Nanos = int64(r.u64())
	m.Scores = r.i32s()
	n := int(r.u32())
	if r.err == nil && n > 0 {
		if n > len(b) { // cheap sanity bound
			return m, fmt.Errorf("cluster: row count %d exceeds message", n)
		}
		m.Rows = make([][]int32, n)
		for i := range m.Rows {
			m.Rows[i] = r.i32s()
		}
	}
	m.SlaveNow = int64(r.u64())
	m.Spans = r.bytes()
	m.CPUNanos = int64(r.u64())
	m.Tier = align.Tier(r.u32())
	m.Rerun = r.bool()
	m.ShadowEnds = int64(r.u64())
	return m, r.err
}

func (m msgTop) encode() []byte {
	b := appendU32(nil, uint32(m.Version))
	b = appendI32s(b, m.PairsI)
	b = appendI32s(b, m.PairsJ)
	return b
}

func decodeTop(b []byte) (msgTop, error) {
	r := &reader{b: b}
	m := msgTop{Version: r.i32(), PairsI: r.i32s(), PairsJ: r.i32s()}
	if r.err == nil && len(m.PairsI) != len(m.PairsJ) {
		return m, fmt.Errorf("cluster: pair coordinate lengths differ (%d vs %d)", len(m.PairsI), len(m.PairsJ))
	}
	return m, r.err
}

func (m msgRow) encode() []byte {
	b := appendU32(make([]byte, 0, 8+4*len(m.Row)), uint32(m.R))
	return appendI32s(b, m.Row)
}

func decodeRow(b []byte) (msgRow, error) {
	r := &reader{b: b}
	m := msgRow{R: r.i32(), Row: r.i32s()}
	return m, r.err
}

package trace

import (
	"encoding/binary"
	"fmt"
)

// Stable binary encoding for span batches: the repository's one binary
// telemetry codec. Cluster slaves ship their per-job spans back to the
// master in this format.
//
// Wire format (little-endian):
//
//	magic "OBT1"
//	u32 nSpans | (trace [16]byte, id [8]byte, parent [8]byte,
//	              i32 rank, i64 start, i64 dur, i64 arg, str name)*
//
// Decoders bound every length against the remaining input so hostile
// frames cannot force large allocations.

var spanMagic = [4]byte{'O', 'B', 'T', '1'}

// maxSpanName bounds one span name; maxSpans bounds one batch.
const (
	maxSpanName = 1 << 10
	maxSpans    = 1 << 20
)

// minSpanBytes is the encoded size of a span with an empty name.
const minSpanBytes = 16 + 8 + 8 + 4 + 8 + 8 + 8 + 4

// EncodeSpans renders spans in the stable binary format.
func EncodeSpans(spans []Span) []byte {
	b := append([]byte(nil), spanMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(spans)))
	for _, sp := range spans {
		b = append(b, sp.Trace[:]...)
		b = append(b, sp.ID[:]...)
		b = append(b, sp.Parent[:]...)
		b = binary.LittleEndian.AppendUint32(b, uint32(sp.Rank))
		b = binary.LittleEndian.AppendUint64(b, uint64(sp.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(sp.Dur))
		b = binary.LittleEndian.AppendUint64(b, uint64(sp.Arg))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sp.Name)))
		b = append(b, sp.Name...)
	}
	return b
}

// decReader decodes the wire format with sticky errors and bounds
// checks.
type decReader struct {
	b   []byte
	off int
	err error
}

func (r *decReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("trace: "+format, args...)
	}
}

func (r *decReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("truncated input at offset %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *decReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *decReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// DecodeSpans parses the stable binary span-batch format.
func DecodeSpans(b []byte) ([]Span, error) {
	r := &decReader{b: b}
	if len(b) < 4 || [4]byte(b[:4]) != spanMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	r.off = 4
	n := int(r.u32())
	if n > maxSpans || n*minSpanBytes > len(b)-r.off {
		return nil, fmt.Errorf("trace: span count %d exceeds input", n)
	}
	spans := make([]Span, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var sp Span
		copy(sp.Trace[:], r.take(16))
		copy(sp.ID[:], r.take(8))
		copy(sp.Parent[:], r.take(8))
		sp.Rank = int32(r.u32())
		sp.Start = r.i64()
		sp.Dur = r.i64()
		sp.Arg = r.i64()
		nameLen := int(r.u32())
		if r.err == nil && (nameLen > maxSpanName || r.off+nameLen > len(r.b)) {
			r.fail("name length %d exceeds input", nameLen)
		}
		sp.Name = string(r.take(nameLen))
		if r.err == nil {
			spans = append(spans, sp)
		}
	}
	if r.err == nil && r.off != len(b) {
		r.fail("%d trailing bytes", len(b)-r.off)
	}
	return spans, r.err
}

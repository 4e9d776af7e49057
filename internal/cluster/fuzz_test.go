package cluster

import (
	"math/rand/v2"
	"testing"

	"repro/internal/topalign"
)

// Decoders must reject or cleanly parse arbitrary bytes — never panic —
// since in the TCP deployment they face whatever arrives on the socket.
func TestDecodersNeverPanic(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	decoders := []func([]byte){
		func(b []byte) { _, _ = decodeSetup(b) },
		func(b []byte) { _, _ = decodeJob(b) },
		func(b []byte) { _, _ = decodeResult(b) },
		func(b []byte) { _, _ = decodeTop(b) },
		func(b []byte) { _, _ = decodeRow(b) },
	}
	for trial := 0; trial < 3000; trial++ {
		n := r.IntN(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r.IntN(256))
		}
		for _, dec := range decoders {
			dec(buf)
		}
	}
	// adversarial: huge length prefixes
	huge := []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}
	for _, dec := range decoders {
		dec(huge)
	}
}

// Truncations of valid messages must error rather than mis-parse into
// something that passes validation downstream.
func TestTruncatedMessagesError(t *testing.T) {
	full := msgResult{R: 3, Version: 1, Work: topalign.Work{First: true},
		Scores: []int32{5, 6}, Rows: [][]int32{{1, 2, 3}, {4}}}.encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeResult(full[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded without error", cut)
		}
	}
}

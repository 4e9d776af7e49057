package align

import (
	"bytes"
	"strings"
	"testing"
)

// REPRO_KERNEL_TIER resolution: a name that does not parse is reported
// in one line and ignored, a valid tier the CPU lacks degrades without a
// word, and a supported tier becomes the override.
func TestEnvTier(t *testing.T) {
	for _, tc := range []struct {
		value    string
		detected Tier
		want     int32
		warns    bool
	}{
		{"", TierInt16x16, -1, false},
		{"auto", TierInt16x16, -1, false},
		{"scalar", TierInt16x16, int32(TierScalar), false},
		{"int32x8", TierInt16x16, int32(TierInt32x8), false},
		{"int16x16", TierInt16x16, int32(TierInt16x16), false},
		{"int16x16", TierScalar, -1, false}, // valid, unsupported: silent
		{"int32x8", TierScalar, -1, false},
		{"int16", TierInt16x16, -1, true}, // typo: one line
		{"Scalar", TierScalar, -1, true},
	} {
		var warn bytes.Buffer
		if got := envTier(tc.value, tc.detected, &warn); got != tc.want {
			t.Errorf("envTier(%q, %s) = %d, want %d", tc.value, tc.detected, got, tc.want)
		}
		out := warn.String()
		if !tc.warns && out != "" {
			t.Errorf("envTier(%q, %s) warned: %q", tc.value, tc.detected, out)
		}
		if tc.warns && (strings.Count(out, "\n") != 1 || !strings.Contains(out, "REPRO_KERNEL_TIER") || !strings.Contains(out, tc.value)) {
			t.Errorf("envTier(%q, %s): want one line naming the variable and the value, got %q", tc.value, tc.detected, out)
		}
	}
}

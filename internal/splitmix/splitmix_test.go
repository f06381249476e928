package splitmix

import "testing"

// TestMix64KnownValues pins the mixer to the published SplitMix64
// stream: the generator seeded with 0 outputs Mix64(k·γ) as its
// (k+1)-th value, γ being the golden-ratio increment. Every per-start
// seed in the repo depends on these exact bits.
func TestMix64KnownValues(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},                  // first output
		{0x3c6ef372fe94f82a, 0x06c45d188009454f}, // third output: 2γ mod 2⁶⁴
	} {
		if got := Mix64(tc.in); got != tc.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

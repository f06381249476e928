package engine

// StartRNG must yield math/rand's stream exactly: every multi-start
// result, pinned output and journal replay depends on the draws, so a
// start source that computes its first draws by jump-ahead is checked
// here against rand.New(rand.NewSource(StartSeed(seed, i))), past its
// window and past two lags of the register.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// startSeeds returns the seeds the stream tests use: seeds whose
// reduction mod 2³¹−1 is 0 (math/rand maps it to 89482311), ±1, the
// int64 extremes, and a spread of others, 200 in all.
func startSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -2 * m, 3 * m, m + 1, m - 1, -m + 1, -m - 1,
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m)}
	rng := rand.New(rand.NewSource(22))
	for len(seeds) < 200 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// sameDraws checks that a and b give the same values through every
// kind of draw the library makes, 1,300 source draws and more.
func sameDraws(t *testing.T, name string, a, b *rand.Rand) {
	t.Helper()
	for d := 0; d < 300; d++ {
		got := [...]uint64{a.Uint64(), uint64(a.Int63()), uint64(a.Intn(3496)),
			uint64(a.Int63n(1e12 + 39)), math.Float64bits(a.Float64())}
		want := [...]uint64{b.Uint64(), uint64(b.Int63()), uint64(b.Intn(3496)),
			uint64(b.Int63n(1e12 + 39)), math.Float64bits(b.Float64())}
		if got != want {
			t.Fatalf("%s: round %d: %v, math/rand %v", name, d, got, want)
		}
	}
	if got, want := a.Perm(50), b.Perm(50); !slices.Equal(got, want) {
		t.Fatalf("%s: Perm %v, math/rand %v", name, got, want)
	}
	got, want := make([]int, 50), make([]int, 50)
	for j := range got {
		got[j], want[j] = j, j
	}
	a.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	b.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Shuffle %v, math/rand %v", name, got, want)
	}
}

func TestStartRNGMatchesMathRand(t *testing.T) {
	for _, seed := range startSeeds() {
		for _, i := range []int{0, 1, 49} {
			sameDraws(t, "StartRNG", StartRNG(seed, i), rand.New(rand.NewSource(StartSeed(seed, i))))
		}
		// Start 0 of seed ^ StartSeed(0, 0) seeds its source with seed
		// itself, so the reduction's edge cases reach the source.
		s := seed ^ StartSeed(0, 0)
		sameDraws(t, "StartRNG", StartRNG(s, 0), rand.New(rand.NewSource(seed)))
	}
}

// TestStartSourceSeedsPastItsWindow checks that one Intn draw, all an
// unconstrained Algorithm I start takes, leaves math/rand's 607-word
// state unseeded, that a draw past the window seeds it, and that Seed
// restarts the stream.
func TestStartSourceSeedsPastItsWindow(t *testing.T) {
	for _, seed := range startSeeds() {
		src := newStartSource(seed)
		r := rand.New(src)
		r.Intn(3496)
		if src.full != nil {
			t.Fatalf("seed %d: one Intn draw seeded the full source", seed)
		}
		for src.drawn < startWindow {
			r.Int63()
		}
		if src.full != nil {
			t.Fatalf("seed %d: %d draws seeded the full source", seed, startWindow)
		}
		r.Int63()
		if src.full == nil {
			t.Fatalf("seed %d: draw %d left the full source unseeded", seed, startWindow+1)
		}
		r.Seed(seed + 1)
		if src.full != nil || src.drawn != 0 {
			t.Fatalf("seed %d: Seed kept the old stream", seed)
		}
		sameDraws(t, "reseeded", r, rand.New(rand.NewSource(seed+1)))
	}
}

// FuzzStartRNG compares StartRNG with math/rand for any seed, start
// index and number of draws, alternating Uint64 and Int63.
func FuzzStartRNG(f *testing.F) {
	f.Add(int64(0), uint32(0), uint16(1))
	f.Add(int64(math.MinInt64), uint32(7), uint16(startWindow+1))
	f.Add(int64(1<<31-1), uint32(49), uint16(1300))
	f.Add(int64(math.MaxInt64), uint32(1<<31), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, start uint32, draws uint16) {
		a := StartRNG(seed, int(start))
		b := rand.New(rand.NewSource(StartSeed(seed, int(start))))
		for d := 0; d < int(draws)%2000; d++ {
			x, y := a.Uint64(), b.Uint64()
			if d%2 == 1 {
				x, y = uint64(a.Int63()), uint64(b.Int63())
			}
			if x != y {
				t.Fatalf("seed %d start %d draw %d: %#x, math/rand %#x", seed, start, d, x, y)
			}
		}
	})
}

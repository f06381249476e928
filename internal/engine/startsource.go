package engine

// The start RNG's source: math/rand's stream without seeding it.
//
// rand.NewSource fills a 607-word additive lagged-Fibonacci register
// from 1,841 steps of the LCG x ← 48271·x mod (2³¹−1), and most starts
// then draw once or twice (an Algorithm I start draws one Intn). The
// first draws need only a few of those words, and each word can be
// computed on its own:
//
//   - Seeding reduces the seed to x₀ ∈ [1, 2³¹−1) and sets word i to
//     x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ c[i], where c is a fixed table
//     of math/rand's and x_k = 48271^k·x₀ mod (2³¹−1), so one
//     precomputed power jumps x₀ to the word's first LCG value.
//   - Draw k (from 1) stores word[334−k] + word[607−k] into word
//     334−k and returns it. For k ≤ 273 no earlier draw has written
//     either word, so draw k is the sum of two seeded words.
//
// c is not exported, so it is recovered once per process from the
// first draws of seed 1 (recoverStartTerms). A startSource serves its
// first startWindow draws this way and seeds the real source only when
// a start draws past them, replaying the draws it already served.

import "math/rand"

const (
	lcgMod      = 1<<31 - 1 // math/rand's seeding LCG: x ← lcgMul·x mod lcgMod
	lcgMul      = 48271
	regLen      = 607 // lagged-Fibonacci register length and lags
	regLag      = 273
	regFeed     = regLen - regLag
	startWindow = 8 // draws a startSource serves before it seeds math/rand
)

// stateTerm is what one register word takes besides the seed.
type stateTerm struct {
	pow    uint64 // lcgMul^(21+3i) mod lcgMod for word i
	cooked uint64 // math/rand's table word c[i]
}

// startTerms[k-1] holds the two register words draw k adds.
var startTerms = recoverStartTerms()

// recoverStartTerms derives startTerms from seed 1, whose LCG values
// are the powers of lcgMul. Its draw k is word[334−k] + word[607−k]
// for k ≤ 273, and its draw 334+k is word[607−k] plus draw 61+k (the
// lag-273 partner written by that draw), which separates the two.
func recoverStartTerms() (terms [startWindow][2]stateTerm) {
	var pow [3*regLen + 21]uint64
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * lcgMul % lcgMod
	}
	src := rand.NewSource(1).(rand.Source64)
	var draw [regFeed + startWindow + 1]uint64 // draw[k] is draw k
	for k := 1; k < len(draw); k++ {
		draw[k] = src.Uint64()
	}
	term := func(i int, word uint64) stateTerm {
		x := pow[21+3*i:]
		return stateTerm{pow: x[0], cooked: word ^ (x[0]<<40 ^ x[1]<<20 ^ x[2])}
	}
	for k := 1; k <= startWindow; k++ {
		tap := draw[regFeed+k] - draw[regFeed-regLag+k]
		terms[k-1] = [2]stateTerm{term(regFeed-k, draw[k]-tap), term(regLen-k, tap)}
	}
	return terms
}

// startSource yields exactly the stream of rand.NewSource(seed).
type startSource struct {
	seed  int64
	x0    uint64 // seed reduced as math/rand's seeding reduces it
	drawn int    // draws served so far
	full  rand.Source64
}

func newStartSource(seed int64) *startSource {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	return &startSource{seed: seed, x0: uint64(x)}
}

// Uint64 returns the next draw: by jump-ahead inside the window, from
// the seeded math/rand source past it.
func (s *startSource) Uint64() uint64 {
	if s.full == nil {
		if s.drawn < startWindow {
			t := &startTerms[s.drawn]
			s.drawn++
			return s.word(t[0]) + s.word(t[1])
		}
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for range s.drawn {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// word returns the seeded register word described by t.
func (s *startSource) word(t stateTerm) uint64 {
	x1 := t.pow * s.x0 % lcgMod
	x2 := x1 * lcgMul % lcgMod
	x3 := x2 * lcgMul % lcgMod
	return x1<<40 ^ x2<<20 ^ x3 ^ t.cooked
}

// Int63 returns the next draw without its top bit, as math/rand does.
func (s *startSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed restarts the stream as rand.NewSource(seed) would.
func (s *startSource) Seed(seed int64) { *s = *newStartSource(seed) }

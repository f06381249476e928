package cutstate

// refState is State as it was before each net's bookkeeping was packed
// into one record with a per-side XOR of pin ids: two count arrays,
// one Gain walk per vertex, and delta rules that walk a whole net to
// find the one pin that the T == 1 and F′ == 1 rules name. It is the
// oracle the production state must match — counts, cut, weights, every
// Gain and Gains, and the exact bump sequence of every move.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

type refState struct {
	h           *hypergraph.Hypergraph
	p           *partition.Bipartition
	left, right []int
	cut         int
	lw, rw      int64
}

func newRefState(h *hypergraph.Hypergraph, p *partition.Bipartition) *refState {
	s := &refState{h: h, p: p, left: make([]int, h.NumEdges()), right: make([]int, h.NumEdges())}
	for e := 0; e < h.NumEdges(); e++ {
		for _, v := range h.EdgePins(e) {
			if p.Side(v) == partition.Left {
				s.left[e]++
			} else {
				s.right[e]++
			}
		}
		if s.left[e] > 0 && s.right[e] > 0 {
			s.cut++
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if p.Side(v) == partition.Left {
			s.lw += h.VertexWeight(v)
		} else {
			s.rw += h.VertexWeight(v)
		}
	}
	return s
}

func (s *refState) gain(v int) int {
	gain := 0
	from := s.p.Side(v)
	for _, e := range s.h.VertexEdges(v) {
		f, t := s.left[e], s.right[e]
		if from == partition.Right {
			f, t = t, f
		}
		if f == 1 && t > 0 {
			gain++
		}
		if t == 0 && f > 1 {
			gain--
		}
	}
	return gain
}

func (s *refState) move(v int, bump func(u, d int)) int {
	before := s.cut
	from := s.p.Side(v)
	fromCount, toCount := s.left, s.right
	if from == partition.Right {
		fromCount, toCount = s.right, s.left
	}
	for _, e := range s.h.VertexEdges(v) {
		f, t := fromCount[e], toCount[e]
		pins := s.h.EdgePins(e)
		switch t {
		case 0:
			for _, u := range pins {
				if u != v {
					bump(u, +1)
				}
			}
		case 1:
			for _, u := range pins {
				if u != v && s.p.Side(u) != from {
					bump(u, -1)
				}
			}
		}
		switch f - 1 {
		case 0:
			for _, u := range pins {
				if u != v {
					bump(u, -1)
				}
			}
		case 1:
			for _, u := range pins {
				if u != v && s.p.Side(u) == from {
					bump(u, +1)
				}
			}
		}
		if wasCut, isCut := t > 0, f > 1; wasCut && !isCut {
			s.cut--
		} else if !wasCut && isCut {
			s.cut++
		}
		fromCount[e], toCount[e] = f-1, t+1
	}
	s.p.Assign(v, from.Opposite())
	if w := s.h.VertexWeight(v); from == partition.Left {
		s.lw, s.rw = s.lw-w, s.rw+w
	} else {
		s.lw, s.rw = s.lw+w, s.rw-w
	}
	return before - s.cut
}

// delta is one reported gain change.
type delta struct{ u, d int }

// matchReference starts a State and a refState from the same sides,
// moves both through moves, and reports the first difference in the
// realized gains, the bump sequences, or the state after a move.
func matchReference(h *hypergraph.Hypergraph, sides []partition.Side, moves []int) string {
	s, err := New(h, partition.FromSides(slices.Clone(sides)))
	if err != nil {
		return err.Error()
	}
	ref := newRefState(h, partition.FromSides(slices.Clone(sides)))
	gains := make([]int, h.NumVertices())
	var got, want []delta
	for step := -1; step < len(moves); step++ {
		if step >= 0 {
			v := moves[step]
			got, want = got[:0], want[:0]
			g := s.MoveWithGainDeltas(v, func(u, d int) { got = append(got, delta{u, d}) })
			w := ref.move(v, func(u, d int) { want = append(want, delta{u, d}) })
			if g != w {
				return fmt.Sprintf("move %d of vertex %d realized %d, the reference %d", step, v, g, w)
			}
			if !slices.Equal(got, want) {
				return fmt.Sprintf("move %d of vertex %d bumped %v, the reference %v", step, v, got, want)
			}
		}
		if s.Cut() != ref.cut {
			return fmt.Sprintf("after move %d: cut %d, the reference %d", step, s.Cut(), ref.cut)
		}
		if lw, rw := s.Weights(); lw != ref.lw || rw != ref.rw {
			return fmt.Sprintf("after move %d: weights %d|%d, the reference %d|%d", step, lw, rw, ref.lw, ref.rw)
		}
		for e := 0; e < h.NumEdges(); e++ {
			if l, r := s.Counts(e); l != ref.left[e] || r != ref.right[e] {
				return fmt.Sprintf("after move %d: net %d counts %d|%d, the reference %d|%d", step, e, l, r, ref.left[e], ref.right[e])
			}
		}
		s.Gains(gains)
		for v := range gains {
			if want := ref.gain(v); s.Gain(v) != want || gains[v] != want {
				return fmt.Sprintf("after move %d: vertex %d Gain %d, Gains %d, the reference %d", step, v, s.Gain(v), gains[v], want)
			}
		}
	}
	if err := s.Verify(); err != nil {
		return err.Error()
	}
	return ""
}

// randomInstance draws a weighted hypergraph of n vertices with 1-pin
// nets among its nets, random sides and a random move sequence.
func randomInstance(rng *rand.Rand, n int) (*hypergraph.Hypergraph, []partition.Side, []int) {
	b := hypergraph.NewBuilder(n)
	for e := rng.Intn(3 * n); e >= 0; e-- {
		pins := make([]int, 1+rng.Intn(min(n, 8)))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int64(rng.Intn(6)))
	}
	sides := make([]partition.Side, n)
	for v := range sides {
		sides[v] = partition.Side(rng.Intn(2))
	}
	moves := make([]int, rng.Intn(4*n))
	for i := range moves {
		moves[i] = rng.Intn(n)
	}
	return b.MustBuild(), sides, moves
}

func TestStateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		h, sides, moves := randomInstance(rng, 1+rng.Intn(24))
		if diff := matchReference(h, sides, moves); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// FuzzCutStateMatchesReference decodes an instance from the input and
// holds State to the reference on it: a vertex count; nets as runs of
// pin bytes, each ended by a byte with the high bit set; then, after a
// 0xff byte, one byte per vertex (side in bit 0, weight above it) and
// one byte per move.
func FuzzCutStateMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0x80, 1, 2, 0x80, 2, 3, 0x80, 0xff, 0, 0, 1, 1, 0, 1, 2, 3})
	f.Add([]byte{6, 0, 0x80, 0, 1, 2, 3, 4, 5, 0x80, 1, 4, 0x80, 0xff, 1, 0, 1, 0, 1, 0, 5, 4, 3, 2, 1, 0, 0})
	f.Add([]byte{2, 0, 1, 0x80, 0xff, 0, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		data = data[1:]
		b := hypergraph.NewBuilder(n)
		var pins []int
		for len(data) > 0 && data[0] != 0xff {
			if c := data[0]; c&0x80 != 0 {
				if len(pins) > 0 {
					b.AddEdge(pins...)
				}
				pins = pins[:0]
			} else {
				pins = append(pins, int(c)%n)
			}
			data = data[1:]
		}
		if len(data) > 0 {
			data = data[1:]
		}
		sides := make([]partition.Side, n)
		for v := range sides {
			if v < len(data) {
				sides[v] = partition.Side(data[v] & 1)
				b.SetVertexWeight(v, int64(data[v]>>1))
			}
		}
		var moves []int
		if len(data) > n {
			for _, c := range data[n:] {
				moves = append(moves, int(c)%n)
			}
		}
		if diff := matchReference(b.MustBuild(), sides, moves); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestInt32Guard checks New's overflow guard on its arithmetic, without
// building anything with 2³¹ vertices.
func TestInt32Guard(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{math.MaxInt32, true}, {math.MaxInt32 + 1, false}, {1 << 40, false}} {
		if err := fitInt32(tc.n); (err == nil) != tc.ok {
			t.Errorf("fitInt32(%d) = %v", tc.n, err)
		}
	}
}

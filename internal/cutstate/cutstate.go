// Package cutstate maintains incremental bookkeeping for move-based
// partitioners (Kernighan–Lin, Fiduccia–Mattheyses, simulated
// annealing): per-net pin counts on each side of a bipartition, the
// current cutsize, side weights, and O(degree) move evaluation.
package cutstate

import (
	"fmt"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// State tracks a complete bipartition of a hypergraph with incremental
// cut maintenance. All mutation goes through Move; the underlying
// partition must not be modified externally while a State is live.
type State struct {
	h *hypergraph.Hypergraph
	p *partition.Bipartition
	// left[e], right[e]: pins of net e on each side.
	left, right []int
	cut         int
	lw, rw      int64
}

// New builds a State from a complete bipartition. It returns an error
// when p leaves vertices unassigned.
func New(h *hypergraph.Hypergraph, p *partition.Bipartition) (*State, error) {
	if !p.IsComplete() {
		return nil, fmt.Errorf("cutstate: partition incomplete")
	}
	s := &State{
		h:     h,
		p:     p,
		left:  make([]int, h.NumEdges()),
		right: make([]int, h.NumEdges()),
	}
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
	return s, nil
}

// Hypergraph returns the underlying hypergraph.
func (s *State) Hypergraph() *hypergraph.Hypergraph { return s.h }

// Partition returns the live partition (do not modify directly).
func (s *State) Partition() *partition.Bipartition { return s.p }

// Cut returns the current cutsize.
func (s *State) Cut() int { return s.cut }

// Side returns the side of vertex v.
func (s *State) Side(v int) partition.Side { return s.p.Side(v) }

// Weights returns the current side weights.
func (s *State) Weights() (left, right int64) { return s.lw, s.rw }

// Imbalance returns |weight(L) − weight(R)|.
func (s *State) Imbalance() int64 {
	if s.lw > s.rw {
		return s.lw - s.rw
	}
	return s.rw - s.lw
}

// Counts returns the pins of net e on each side.
func (s *State) Counts(e int) (left, right int) { return s.left[e], s.right[e] }

// Gain returns the cut decrease obtained by moving v to the other side
// (positive is good), in O(degree(v)). This is the Fiduccia–Mattheyses
// cell gain: a net leaves the cut when v is its last pin on its side,
// and enters the cut when the other side had no pins.
func (s *State) Gain(v int) int {
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

// Move flips v to the other side, updating all bookkeeping, and returns
// the cut decrease realized (== Gain(v) evaluated beforehand).
func (s *State) Move(v int) int { return s.MoveWithGainDeltas(v, nil) }

// MoveWithGainDeltas is Move, also reporting through bump(u, d) every
// change d to the Gain of another vertex u that the move causes, by
// the standard Fiduccia–Mattheyses rules. For each net of v with
// from-side count F and to-side count T before the move:
//
//	T == 0: every other cell on the net gains (the net could now be
//	        uncut by following v);
//	T == 1: the lone to-side cell loses (it can no longer uncut the
//	        net by itself);
//
// and after the move, with F′ = F − 1:
//
//	F′ == 0: every other cell on the net loses;
//	F′ == 1: the lone remaining from-side cell gains.
//
// bump sees the deltas net by net in that order, each vertex possibly
// several times, and never sees v itself: v's own Gain after the move
// is the negation of its Gain before. Each net's counts and cut status
// are updated in the same walk that reports its deltas, so v's nets
// are visited once. A nil bump is Move. O(Σ pins of v's nets).
func (s *State) MoveWithGainDeltas(v int, bump func(u, d int)) int {
	before := s.cut
	from := s.p.Side(v)
	fromCount, toCount := s.left, s.right
	if from == partition.Right {
		fromCount, toCount = s.right, s.left
	}
	for _, e := range s.h.VertexEdges(v) {
		f, t := fromCount[e], toCount[e]
		if bump != nil {
			s.reportDeltas(v, e, from, f, t, bump)
		}
		// The net was cut iff both counts were positive (f ≥ 1 always:
		// v is on it), and is cut afterwards iff f − 1 > 0.
		wasCut, isCut := t > 0, f > 1
		if wasCut && !isCut {
			s.cut--
		} else if !wasCut && isCut {
			s.cut++
		}
		fromCount[e] = f - 1
		toCount[e] = t + 1
	}
	s.p.Assign(v, from.Opposite())
	w := s.h.VertexWeight(v)
	if from == partition.Left {
		s.lw -= w
		s.rw += w
	} else {
		s.rw -= w
		s.lw += w
	}
	return before - s.cut
}

// reportDeltas reports the gain deltas that moving v off side from
// causes on net e, whose from-side and to-side counts are f and t
// before the move.
func (s *State) reportDeltas(v, e int, from partition.Side, f, t int, bump func(u, d int)) {
	switch t {
	case 0:
		for _, u := range s.h.EdgePins(e) {
			if u != v {
				bump(u, +1)
			}
		}
	case 1:
		for _, u := range s.h.EdgePins(e) {
			if u != v && s.p.Side(u) != from {
				bump(u, -1)
			}
		}
	}
	switch f - 1 {
	case 0:
		for _, u := range s.h.EdgePins(e) {
			if u != v {
				bump(u, -1)
			}
		}
	case 1:
		for _, u := range s.h.EdgePins(e) {
			if u != v && s.p.Side(u) == from {
				bump(u, +1)
			}
		}
	}
}

// SwapGain returns the exact cut decrease of swapping a and b (on
// opposite sides), in O(deg(a)+deg(b)), without mutating the state.
// Unlike Gain(a)+Gain(b) it accounts for nets containing both.
func (s *State) SwapGain(a, b int) int {
	// Apply both moves, measure, and undo; Move is exact and O(degree).
	before := s.cut
	s.Move(a)
	s.Move(b)
	after := s.cut
	s.Move(a)
	s.Move(b)
	return before - after
}

// Verify recomputes everything from scratch and reports whether the
// incremental bookkeeping agrees; for tests.
func (s *State) Verify() error {
	fresh, err := New(s.h, s.p.Clone())
	if err != nil {
		return err
	}
	if fresh.cut != s.cut {
		return fmt.Errorf("cutstate: cut drifted: incremental %d, fresh %d", s.cut, fresh.cut)
	}
	if fresh.lw != s.lw || fresh.rw != s.rw {
		return fmt.Errorf("cutstate: weights drifted: incremental %d|%d, fresh %d|%d", s.lw, s.rw, fresh.lw, fresh.rw)
	}
	for e := 0; e < s.h.NumEdges(); e++ {
		if fresh.left[e] != s.left[e] || fresh.right[e] != s.right[e] {
			return fmt.Errorf("cutstate: net %d counts drifted", e)
		}
	}
	return nil
}

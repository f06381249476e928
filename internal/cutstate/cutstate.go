// Package cutstate maintains incremental bookkeeping for move-based
// partitioners (Kernighan–Lin, Fiduccia–Mattheyses, simulated
// annealing): per-net pin counts on each side of a bipartition, the
// current cutsize, side weights, and O(degree) move evaluation.
package cutstate

import (
	"fmt"
	"math"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// State tracks a complete bipartition of a hypergraph with incremental
// cut maintenance. All mutation goes through Move; the underlying
// partition must not be modified externally while a State is live.
type State struct {
	h      *hypergraph.Hypergraph
	p      *partition.Bipartition
	nets   []netState
	cut    int
	lw, rw int64
}

// netState is one net's bookkeeping, indexed by side (partition.Left
// is 0, partition.Right 1): count[s] is the number of the net's pins
// on side s and xor[s] the XOR of their vertex ids, so a side holding
// exactly one pin names it in O(1). One record per net keeps a net's
// visit to one cache line.
type netState struct {
	count [2]int32
	xor   [2]int32
}

// New builds a State from a complete bipartition. It returns an error
// when p leaves vertices unassigned, or when the vertex ids, and with
// them the pin counts, do not fit the int32 records.
func New(h *hypergraph.Hypergraph, p *partition.Bipartition) (*State, error) {
	if !p.IsComplete() {
		return nil, fmt.Errorf("cutstate: partition incomplete")
	}
	if err := fitInt32(h.NumVertices()); err != nil {
		return nil, err
	}
	s := &State{h: h, p: p, nets: make([]netState, h.NumEdges())}
	for e := range s.nets {
		ns := &s.nets[e]
		for _, v := range h.EdgePins(e) {
			side := p.Side(v)
			ns.count[side]++
			ns.xor[side] ^= int32(v)
		}
		if ns.count[partition.Left] > 0 && ns.count[partition.Right] > 0 {
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

// fitInt32 reports an error when the ids of n vertices would overflow
// netState's int32 fields. A net's pins are distinct vertices, so no
// count exceeds n either.
func fitInt32(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("cutstate: %d vertices overflow int32 ids and counts", n)
	}
	return nil
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
func (s *State) Counts(e int) (left, right int) {
	c := s.nets[e].count
	return int(c[partition.Left]), int(c[partition.Right])
}

// Gain returns the cut decrease obtained by moving v to the other side
// (positive is good), in O(degree(v)). This is the Fiduccia–Mattheyses
// cell gain: a net leaves the cut when v is its last pin on its side,
// and enters the cut when the other side had no pins.
func (s *State) Gain(v int) int {
	gain := 0
	from := s.p.Side(v)
	to := 1 - from
	for _, e := range s.h.VertexEdges(v) {
		c := &s.nets[e].count
		f, t := c[from], c[to]
		if f == 1 && t > 0 {
			gain++
		}
		if t == 0 && f > 1 {
			gain--
		}
	}
	return gain
}

// Gains sets gain[v] = Gain(v) for every vertex in one pass over the
// nets instead of one walk per vertex: a cut net credits the lone pin
// of each side that has one, read from xor in O(1), and an uncut net
// of two or more pins debits every pin. gain must have length n.
func (s *State) Gains(gain []int) {
	clear(gain)
	for e := range s.nets {
		ns := &s.nets[e]
		l, r := ns.count[partition.Left], ns.count[partition.Right]
		if l > 0 && r > 0 {
			if l == 1 {
				gain[ns.xor[partition.Left]]++
			}
			if r == 1 {
				gain[ns.xor[partition.Right]]++
			}
		} else if l+r > 1 {
			for _, u := range s.h.EdgePins(e) {
				gain[u]--
			}
		}
	}
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
// is the negation of its Gain before. The two lone-cell rules name
// their cell from the net's xor record without walking the net, and
// each net's record and cut status are updated in the same visit that
// reports its deltas. A nil bump is Move. O(degree(v)) plus the pins
// of the nets that the T == 0 and F′ == 0 rules walk.
func (s *State) MoveWithGainDeltas(v int, bump func(u, d int)) int {
	before := s.cut
	from := s.p.Side(v)
	to := 1 - from
	id := int32(v)
	for _, e := range s.h.VertexEdges(v) {
		ns := &s.nets[e]
		f, t := ns.count[from], ns.count[to]
		if bump != nil {
			s.reportDeltas(v, e, ns, from, f, t, bump)
		}
		// The net was cut iff both counts were positive (f ≥ 1 always:
		// v is on it), and is cut afterwards iff f − 1 > 0.
		wasCut, isCut := t > 0, f > 1
		if wasCut && !isCut {
			s.cut--
		} else if !wasCut && isCut {
			s.cut++
		}
		ns.count[from] = f - 1
		ns.count[to] = t + 1
		ns.xor[from] ^= id
		ns.xor[to] ^= id
	}
	s.p.Assign(v, to)
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
// causes on net e, whose record ns still holds the from-side and
// to-side counts f and t from before the move.
func (s *State) reportDeltas(v, e int, ns *netState, from partition.Side, f, t int32, bump func(u, d int)) {
	switch t {
	case 0:
		for _, u := range s.h.EdgePins(e) {
			if u != v {
				bump(u, +1)
			}
		}
	case 1:
		bump(int(ns.xor[1-from]), -1)
	}
	switch f - 1 {
	case 0:
		for _, u := range s.h.EdgePins(e) {
			if u != v {
				bump(u, -1)
			}
		}
	case 1:
		bump(int(ns.xor[from]^int32(v)), +1)
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
	for e, ns := range s.nets {
		if ns != fresh.nets[e] {
			return fmt.Errorf("cutstate: net %d record drifted: incremental %+v, fresh %+v", e, ns, fresh.nets[e])
		}
	}
	return nil
}

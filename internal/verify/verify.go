// Package verify is the shared partition-verification oracle: every
// partitioner in the library claims to return a proper bipartition with
// a correctly reported cutsize, and this package is the single place
// that claim is checked from first principles. Check recomputes every
// quantity from scratch with its own edge walk (deliberately not
// reusing the early-exit logic of internal/partition), cross-checks the
// incremental bookkeeping of internal/cutstate by replaying a full
// move walk, and returns a Report of the verified facts. The
// differential and golden-corpus suites at the repository root, the
// per-algorithm package tests, and the `hgpart -verify` flag all funnel
// through it, so a bookkeeping bug in any partitioner fails loudly in
// one well-understood place.
package verify

import (
	"fmt"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// Report holds the independently recomputed facts about a verified
// bipartition.
type Report struct {
	// CutSize is the number of nets with pins on both sides.
	CutSize int
	// WeightedCut is the total weight of crossing nets.
	WeightedCut int64
	// Left and Right are the vertex counts per side.
	Left, Right int
	// LeftWeight and RightWeight are the vertex-weight totals per side.
	LeftWeight, RightWeight int64
}

// Check validates the fundamental invariants of a complete bipartition
// of h and returns the recomputed Report. It fails when:
//
//   - p does not cover exactly h's vertex set, leaves a vertex
//     unassigned, or leaves a side empty;
//   - the from-scratch cutsize disagrees with partition.CutSize /
//     partition.WeightedCutSize / partition.SideWeights (an
//     inconsistency inside the metric layer itself);
//   - internal/cutstate disagrees: its initial scan, a full move walk
//     (every vertex flipped once, checking each realized gain against
//     the predicted Gain, then flipped back) and its own Verify must
//     all reproduce the recomputed numbers.
//
// Check never mutates p; the cutstate walk runs on a clone. Cost is
// O(pins) — cheap enough to run after every partitioner call in tests
// and behind `hgpart -verify` on real netlists.
func Check(h *hypergraph.Hypergraph, p *partition.Bipartition) (*Report, error) {
	rep, err := recompute(h, p)
	if err != nil {
		return nil, err
	}
	// Cross-check the metric layer.
	if got := partition.CutSize(h, p); got != rep.CutSize {
		return nil, fmt.Errorf("verify: partition.CutSize %d != recomputed %d", got, rep.CutSize)
	}
	if got := partition.WeightedCutSize(h, p); got != rep.WeightedCut {
		return nil, fmt.Errorf("verify: partition.WeightedCutSize %d != recomputed %d", got, rep.WeightedCut)
	}
	l, r := partition.SideWeights(h, p)
	if l != rep.LeftWeight || r != rep.RightWeight {
		return nil, fmt.Errorf("verify: partition.SideWeights %d|%d != recomputed %d|%d", l, r, rep.LeftWeight, rep.RightWeight)
	}
	if err := checkCutState(h, p, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckCut is Check plus agreement with the cutsize the partitioner
// claimed for p.
func CheckCut(h *hypergraph.Hypergraph, p *partition.Bipartition, claimed int) (*Report, error) {
	rep, err := Check(h, p)
	if err != nil {
		return nil, err
	}
	if rep.CutSize != claimed {
		return nil, fmt.Errorf("verify: claimed cutsize %d, recomputed %d", claimed, rep.CutSize)
	}
	return rep, nil
}

// CheckEpsilon is Check plus the (1+ε)·⌈w(V)/2⌉ balance contract:
// neither side's weight may exceed Constraint{Epsilon: eps}'s
// MaxSideWeight. An eps of 0 enforces the tightest admissible bound
// (the ceil itself).
func CheckEpsilon(h *hypergraph.Hypergraph, p *partition.Bipartition, eps float64) (*Report, error) {
	rep, err := Check(h, p)
	if err != nil {
		return nil, err
	}
	c := partition.Constraint{Epsilon: eps}
	if err := c.Validate(h.NumVertices(), 2); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	maxSide := c.MaxSideWeight(h.TotalVertexWeight(), 2)
	if rep.LeftWeight > maxSide || rep.RightWeight > maxSide {
		return nil, fmt.Errorf("verify: side weights %d|%d exceed max side weight %d (epsilon %g)",
			rep.LeftWeight, rep.RightWeight, maxSide, eps)
	}
	return rep, nil
}

// CheckFixed is Check plus the fixed-vertex contract: every vertex
// pinned by fixed (part 0 = Left, any other id = Right, −1 = free)
// must sit on its pinned side. The fixed slice may be shorter than the
// vertex set; the tail is free.
func CheckFixed(h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []int8) (*Report, error) {
	rep, err := Check(h, p)
	if err != nil {
		return nil, err
	}
	for v, s := range fixed {
		if s < 0 {
			continue
		}
		want := partition.Left
		if s != 0 {
			want = partition.Right
		}
		if p.Side(v) != want {
			return nil, fmt.Errorf("verify: fixed vertex %d on side %v, pinned to %v", v, p.Side(v), want)
		}
	}
	return rep, nil
}

// CheckConstraint is the combined oracle gate for a full
// partition.Constraint: Check plus the ε bound (when the constraint
// carries one) plus the fixed-vertex assignment. A zero constraint
// degrades to plain Check.
func CheckConstraint(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint) (*Report, error) {
	if err := c.Validate(h.NumVertices(), 2); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	var rep *Report
	var err error
	if c.HasBalance() {
		rep, err = CheckEpsilon(h, p, c.Epsilon)
	} else {
		rep, err = Check(h, p)
	}
	if err != nil {
		return nil, err
	}
	if c.HasFixed() {
		if _, err := CheckFixed(h, p, c.FixedSide); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// recompute derives the Report with verify's own full edge walk: each
// net's pins are counted per side exhaustively (no early exit), so the
// result does not share code paths with partition.Crosses.
func recompute(h *hypergraph.Hypergraph, p *partition.Bipartition) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("verify: nil partition")
	}
	if p.Len() != h.NumVertices() {
		return nil, fmt.Errorf("verify: partition covers %d vertices, hypergraph has %d", p.Len(), h.NumVertices())
	}
	rep := &Report{}
	for v := 0; v < h.NumVertices(); v++ {
		switch p.Side(v) {
		case partition.Left:
			rep.Left++
			rep.LeftWeight += h.VertexWeight(v)
		case partition.Right:
			rep.Right++
			rep.RightWeight += h.VertexWeight(v)
		default:
			return nil, fmt.Errorf("verify: vertex %d unassigned", v)
		}
	}
	if rep.Left == 0 || rep.Right == 0 {
		return nil, fmt.Errorf("verify: side empty (left=%d right=%d)", rep.Left, rep.Right)
	}
	for e := 0; e < h.NumEdges(); e++ {
		left, right := 0, 0
		for _, v := range h.EdgePins(e) {
			if p.Side(v) == partition.Left {
				left++
			} else {
				right++
			}
		}
		if left+right != h.EdgeSize(e) {
			return nil, fmt.Errorf("verify: edge %d pin accounting broken (%d+%d != %d)", e, left, right, h.EdgeSize(e))
		}
		if left > 0 && right > 0 {
			rep.CutSize++
			rep.WeightedCut += h.EdgeWeight(e)
		}
	}
	return rep, nil
}

// checkCutState validates internal/cutstate against rep: the initial
// scan, the per-move gain prediction, and full-flip symmetry (flipping
// every vertex preserves the cut and swaps the side weights).
func checkCutState(h *hypergraph.Hypergraph, p *partition.Bipartition, rep *Report) error {
	s, err := cutstate.New(h, p.Clone())
	if err != nil {
		return fmt.Errorf("verify: cutstate rejected a complete partition: %w", err)
	}
	if s.Cut() != rep.CutSize {
		return fmt.Errorf("verify: cutstate initial cut %d != recomputed %d", s.Cut(), rep.CutSize)
	}
	lw, rw := s.Weights()
	if lw != rep.LeftWeight || rw != rep.RightWeight {
		return fmt.Errorf("verify: cutstate weights %d|%d != recomputed %d|%d", lw, rw, rep.LeftWeight, rep.RightWeight)
	}
	for v := 0; v < h.NumVertices(); v++ {
		want := s.Gain(v)
		if got := s.Move(v); got != want {
			return fmt.Errorf("verify: cutstate vertex %d realized gain %d != predicted %d", v, got, want)
		}
	}
	// Every vertex flipped: the cut is invariant and the weights swap.
	if s.Cut() != rep.CutSize {
		return fmt.Errorf("verify: cutstate cut %d after full flip, want %d", s.Cut(), rep.CutSize)
	}
	lw, rw = s.Weights()
	if lw != rep.RightWeight || rw != rep.LeftWeight {
		return fmt.Errorf("verify: cutstate weights %d|%d after full flip, want %d|%d", lw, rw, rep.RightWeight, rep.LeftWeight)
	}
	if err := s.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// KWayReport holds the independently recomputed facts about a verified
// K-way partition.
type KWayReport struct {
	// CutNets is the number of nets spanning more than one part.
	CutNets int
	// Connectivity is Σ over nets of (λ(e) − 1).
	Connectivity int64
	// PartWeights is the total vertex weight per part.
	PartWeights []int64
	// PartSizes is the vertex count per part.
	PartSizes []int
}

// CheckKWay validates a K-way labeling against the contract c read
// K-way (FixedSide entries are part ids): part covers h's vertex set,
// every id lies in [0, k), every part is nonempty, every fixed vertex
// sits on its part, no part outweighs c.MaxSideWeight(w(V), k) when c
// carries an ε, and the K-way metrics (cut nets, connectivity Σ(λ−1))
// recomputed from scratch are internally consistent. For k = 2 the
// labeling is also converted to a Bipartition and run through Check,
// tying the K-way and two-way oracles together.
func CheckKWay(h *hypergraph.Hypergraph, part []int, k int, c partition.Constraint) (*KWayReport, error) {
	if k < 2 {
		return nil, fmt.Errorf("verify: kway needs k >= 2, got %d", k)
	}
	if len(part) != h.NumVertices() {
		return nil, fmt.Errorf("verify: kway labeling covers %d vertices, hypergraph has %d", len(part), h.NumVertices())
	}
	if err := c.Validate(h.NumVertices(), k); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep := &KWayReport{
		PartWeights: make([]int64, k),
		PartSizes:   make([]int, k),
	}
	for v, id := range part {
		if id < 0 || id >= k {
			return nil, fmt.Errorf("verify: kway vertex %d labeled %d, want [0,%d)", v, id, k)
		}
		rep.PartSizes[id]++
		rep.PartWeights[id] += h.VertexWeight(v)
	}
	for id, sz := range rep.PartSizes {
		if sz == 0 {
			return nil, fmt.Errorf("verify: kway part %d empty", id)
		}
	}
	for v, f := range c.FixedSide {
		if f >= 0 && part[v] != int(f) {
			return nil, fmt.Errorf("verify: kway fixed vertex %d on part %d, pinned to %d", v, part[v], f)
		}
	}
	if c.HasBalance() {
		maxPart := c.MaxSideWeight(h.TotalVertexWeight(), k)
		for id, w := range rep.PartWeights {
			if w > maxPart {
				return nil, fmt.Errorf("verify: kway part %d weighs %d, over max part weight %d (epsilon %g)", id, w, maxPart, c.Epsilon)
			}
		}
	}
	seen := make([]bool, k)
	for e := 0; e < h.NumEdges(); e++ {
		lambda := 0
		for _, v := range h.EdgePins(e) {
			if !seen[part[v]] {
				seen[part[v]] = true
				lambda++
			}
		}
		for _, v := range h.EdgePins(e) {
			seen[part[v]] = false
		}
		if lambda > 1 {
			rep.CutNets++
		}
		rep.Connectivity += int64(lambda - 1)
	}
	if k == 2 {
		p := partition.New(h.NumVertices())
		for v, id := range part {
			if id == 0 {
				p.Assign(v, partition.Left)
			} else {
				p.Assign(v, partition.Right)
			}
		}
		two, err := Check(h, p)
		if err != nil {
			return nil, fmt.Errorf("verify: kway k=2 cross-check: %w", err)
		}
		if two.CutSize != rep.CutNets {
			return nil, fmt.Errorf("verify: kway k=2 cut %d != bipartition cut %d", rep.CutNets, two.CutSize)
		}
		if rep.Connectivity != int64(rep.CutNets) {
			return nil, fmt.Errorf("verify: kway k=2 connectivity %d != cut nets %d", rep.Connectivity, rep.CutNets)
		}
	}
	return rep, nil
}

// Package rebalance repairs the weight balance of a bipartition by
// greedily moving the cheapest vertices — those whose move hurts the
// cut least — from the heavy side until a target split is met. It is
// the glue that lets the unconstrained partitioners (notably
// Algorithm I, whose balance is only probabilistic) satisfy the
// proportional targets of K-way recursive bisection, and the single
// enforcement point for the unified partition.Constraint contract
// (ε bound + fixed vertices).
package rebalance

import (
	"errors"
	"fmt"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// ErrNegativeTolerance reports a caller-supplied tolerance below zero,
// which is always a bug at the call site.
var ErrNegativeTolerance = errors.New("rebalance: negative tolerance")

// ErrInfeasible reports that no sequence of legal moves can satisfy the
// requested constraint — e.g. the fixed vertices of one side already
// outweigh the ε bound, or a giant module straddles every admissible
// split.
var ErrInfeasible = errors.New("rebalance: constraint infeasible")

// ToTargetFixed moves vertices between the sides of p (in place) until
// the left-side weight lies within tolerance of targetLeft, always
// moving a vertex with the maximum cut gain (least cut damage) from the
// heavy side; vertex-count non-emptiness is preserved. Vertices whose
// fixed entry is ≥ 0 are never moved; a nil or short fixed slice leaves
// the remaining vertices movable. It returns the number of vertices
// moved.
//
// The loop always terminates: each move strictly reduces the distance
// to the target or stops when no legal mover exists (e.g. a single
// giant module heavier than the tolerance straddles the target).
func ToTargetFixed(h *hypergraph.Hypergraph, p *partition.Bipartition, targetLeft, tolerance int64, fixed []int8) (int, error) {
	return toTarget(h, p, targetLeft, tolerance, fixed, nil)
}

// toTarget is ToTargetFixed; check, when non-nil, sees every mover
// choice before it is made.
func toTarget(h *hypergraph.Hypergraph, p *partition.Bipartition, targetLeft, tolerance int64, fixed []int8, check func(s *cutstate.State, v int)) (int, error) {
	if err := p.Validate(h); err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	if tolerance < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeTolerance, tolerance)
	}
	m, err := newMover(h, p, fixed, nil, check)
	if err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	moved := 0
	for {
		lw, _ := m.s.Weights()
		var from partition.Side
		var excess int64
		switch {
		case lw > targetLeft+tolerance:
			from, excess = partition.Left, lw-targetLeft
		case lw < targetLeft-tolerance:
			from, excess = partition.Right, targetLeft-lw
		default:
			return moved, nil
		}
		// A mover must weigh less than 2×excess: a heavier one would
		// overshoot past the starting distance into oscillation.
		v := m.best(from, 2*excess-1)
		if v == -1 {
			return moved, nil // no legal move can improve the balance
		}
		m.move(v)
		moved++
	}
}

// Enforce makes p satisfy the constraint c in place: fixed vertices are
// forced onto their pinned sides, then the greedy repair moves free
// vertices off any side exceeding c's max side weight. It returns
// ErrInfeasible (wrapped with the reason) when the constraint is
// provably unsatisfiable or the repair stalls with a side still
// overweight. A zero constraint validates p and returns nil.
//
// Enforce may leave a side empty of vertices only when the fixed
// assignment itself demands it; otherwise it pulls a free vertex across
// to keep both sides populated, matching the library-wide invariant
// that a bipartition has two nonempty sides.
func Enforce(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint) error {
	return EnforceOrdered(h, p, c, nil)
}

// EnforceOrdered is Enforce with the repair's vertex order built once
// by NewOrder(h), for callers that repair many partitions of h. A nil
// order is built per call when a repair needs it, as Enforce does.
func EnforceOrdered(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint, order *Order) error {
	_, err := enforce(h, p, c, order, nil)
	return err
}

// enforce is EnforceOrdered, also returning the work count of the
// repair's mover (zero when none was needed); check, when non-nil, sees
// every mover choice before it is made.
func enforce(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint, order *Order, check func(s *cutstate.State, v int)) (int, error) {
	if err := c.Validate(h.NumVertices(), 2); err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	if len(p.Sides()) != h.NumVertices() {
		return 0, fmt.Errorf("rebalance: partition covers %d vertices, hypergraph has %d", p.Len(), h.NumVertices())
	}
	if c.IsZero() {
		if err := p.Validate(h); err != nil {
			return 0, fmt.Errorf("rebalance: %w", err)
		}
		return 0, nil
	}
	if err := c.Infeasible(h); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	c.ApplyFixed(p)
	if err := repairEmptySide(h, p, c); err != nil {
		return 0, err
	}
	if !c.HasBalance() {
		return 0, nil
	}
	total := h.TotalVertexWeight()
	maxSide := c.MaxSideWeight(total, 2)
	m, err := newMover(h, p, c.FixedSide, order, check)
	if err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	for {
		lw, rw := m.s.Weights()
		var from partition.Side
		switch {
		case lw > maxSide:
			from = partition.Left
		case rw > maxSide:
			from = partition.Right
		default:
			return m.work, nil
		}
		// A mover may weigh anything up to fromWeight − minSide: landing
		// anywhere inside the admissible band is fine, unlike
		// ToTargetFixed's point target, but overshooting past the band would just push
		// the violation to the other side and oscillate. Since maxSide ≥
		// ⌈total/2⌉, the other side never becomes the heavy one, so from
		// stays fixed and this ceiling falls with every move.
		fromW := lw
		if from == partition.Right {
			fromW = rw
		}
		v := m.best(from, fromW-(total-maxSide))
		if v == -1 {
			return m.work, fmt.Errorf("%w: side weight %d exceeds max %d and no free vertex can move", ErrInfeasible, fromW, maxSide)
		}
		m.move(v)
	}
}

// repairEmptySide pulls a free vertex onto an empty side so the
// two-nonempty-sides invariant survives ApplyFixed. When every vertex
// is fixed to one side there is nothing to move and the constraint is
// infeasible under the library's bipartition definition.
func repairEmptySide(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint) error {
	l, r, u := p.Counts()
	if u > 0 {
		return fmt.Errorf("rebalance: %d vertices unassigned", u)
	}
	if l > 0 && r > 0 {
		return nil
	}
	empty, other := partition.Left, partition.Right
	if r == 0 {
		empty, other = partition.Right, partition.Left
	}
	// Lightest free vertex on the populated side crosses over.
	best := -1
	var bestW int64
	for v := 0; v < h.NumVertices(); v++ {
		if c.Fixed(v) >= 0 || p.Side(v) != other {
			continue
		}
		w := h.VertexWeight(v)
		if best == -1 || w < bestW || (w == bestW && v < best) {
			best, bestW = v, w
		}
	}
	if best == -1 {
		return fmt.Errorf("%w: every vertex is fixed to one side", ErrInfeasible)
	}
	p.Assign(best, empty)
	return nil
}

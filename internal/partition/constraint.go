// Constraint is the unified balance contract shared by every
// partitioner in the library: an explicit imbalance parameter ε under
// the KaHyPar-style bound max part weight ≤ (1+ε)·⌈w(V)/k⌉, plus an
// optional set of fixed (pre-assigned) vertices that no algorithm may
// move. Every partitioner takes its balance setting from it; what an
// algorithm does without an ε is an unexported constant of its package
// (fm alone still reads an older balance fraction b, as ε = 2b).
package partition

import (
	"fmt"
	"hash/fnv"
	"math"
)

// FreeVertex marks a vertex with no fixed-side assignment in
// Constraint.FixedSide.
const FreeVertex int8 = -1

// Constraint bundles the ε-imbalance bound and the fixed-vertex
// assignment. The zero value is the unconstrained contract: ε = 0 with
// no fixed vertices means "no balance bound requested" (NOT "perfectly
// balanced"), preserving the historical behavior of every call site
// that predates this type.
type Constraint struct {
	// Epsilon is the allowed imbalance: every part must weigh at most
	// (1+ε)·⌈w(V)/k⌉. Negative values are invalid.
	Epsilon float64
	// FixedSide pins vertices: FixedSide[v] is the part id vertex v must
	// end on (0 = Left, 1 = Right for bipartitions; any id in [0,k) for
	// K-way), or FreeVertex (−1) for an unconstrained vertex. A nil or
	// short slice leaves the remaining vertices free.
	FixedSide []int8
}

// HasBalance reports whether c carries an explicit ε bound.
func (c Constraint) HasBalance() bool { return c.Epsilon > 0 }

// HasFixed reports whether any vertex is pinned.
func (c Constraint) HasFixed() bool {
	for _, s := range c.FixedSide {
		if s >= 0 {
			return true
		}
	}
	return false
}

// IsZero reports whether c is the unconstrained contract.
func (c Constraint) IsZero() bool { return !c.HasBalance() && !c.HasFixed() }

// Fixed returns the pinned part of vertex v, or FreeVertex. Vertices
// beyond len(FixedSide) are free, so a short slice is usable against
// any hypergraph.
func (c Constraint) Fixed(v int) int8 {
	if v < len(c.FixedSide) {
		return c.FixedSide[v]
	}
	return FreeVertex
}

// Validate checks c against a hypergraph with n vertices and k parts:
// ε must be non-negative, FixedSide must not name vertices ≥ n, and
// every pinned part id must lie in [0, k).
func (c Constraint) Validate(n, k int) error {
	if c.Epsilon < 0 {
		return fmt.Errorf("partition: negative epsilon %v", c.Epsilon)
	}
	if math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("partition: epsilon %v is not finite", c.Epsilon)
	}
	if len(c.FixedSide) > n {
		return fmt.Errorf("partition: FixedSide covers %d vertices, hypergraph has %d", len(c.FixedSide), n)
	}
	for v, s := range c.FixedSide {
		if s < -1 || int(s) >= k {
			return fmt.Errorf("partition: vertex %d fixed to part %d, want [0,%d) or -1", v, s, k)
		}
	}
	return nil
}

// MaxSideWeight returns the largest admissible part weight under the
// (1+ε)·⌈total/k⌉ contract, clamped to total. The small additive guard
// keeps exact boundaries from rounding down through float
// representation error (1.2·5 evaluates below 6 in binary floating
// point), and an ε of zero still admits the ceil itself so that odd
// totals remain partitionable.
func (c Constraint) MaxSideWeight(total int64, k int) int64 {
	if k < 2 {
		k = 2
	}
	ceil := (total + int64(k) - 1) / int64(k)
	m := int64(math.Floor((1+c.Epsilon)*float64(ceil) + 1e-9))
	if m > total {
		m = total
	}
	if m < ceil {
		m = ceil
	}
	return m
}

// MinSideWeight returns the least weight either side of a bipartition
// may hold under the contract: total − MaxSideWeight(total, 2).
func (c Constraint) MinSideWeight(total int64) int64 {
	m := total - c.MaxSideWeight(total, 2)
	if m < 0 {
		m = 0
	}
	return m
}

// FixedBools renders the fixed set as a lock mask over n vertices for
// algorithms (FM) that take a []bool lock vector. Returns nil when no
// vertex is pinned.
func (c Constraint) FixedBools(n int) []bool {
	if !c.HasFixed() {
		return nil
	}
	locked := make([]bool, n)
	for v := range c.FixedSide {
		if c.FixedSide[v] >= 0 {
			locked[v] = true
		}
	}
	return locked
}

// ApplyFixed overwrites p with the pinned sides (0 → Left, everything
// else → Right) and returns how many vertices it reassigned. Free
// vertices are untouched.
func (c Constraint) ApplyFixed(p *Bipartition) int {
	changed := 0
	for v := range c.FixedSide {
		if v >= p.Len() {
			break
		}
		s := c.FixedSide[v]
		if s < 0 {
			continue
		}
		want := Left
		if s != 0 {
			want = Right
		}
		if p.Side(v) != want {
			p.Assign(v, want)
			changed++
		}
	}
	return changed
}

// RespectsFixed reports whether every pinned vertex of p sits on its
// pinned side.
func (c Constraint) RespectsFixed(p *Bipartition) bool {
	for v := range c.FixedSide {
		if v >= p.Len() {
			break
		}
		s := c.FixedSide[v]
		if s < 0 {
			continue
		}
		want := Left
		if s != 0 {
			want = Right
		}
		if p.Side(v) != want {
			return false
		}
	}
	return true
}

// FixedWeights sums the pinned vertex weight per side of a
// bipartition contract (part 0 = Left, others = Right).
func (c Constraint) FixedWeights(h weighted) (left, right int64) {
	for v := range c.FixedSide {
		switch {
		case c.FixedSide[v] < 0:
		case c.FixedSide[v] == 0:
			left += h.VertexWeight(v)
		default:
			right += h.VertexWeight(v)
		}
	}
	return
}

// weighted is the slice of the hypergraph API Constraint needs; keeping
// it an interface avoids widening the package's hypergraph dependency
// surface in tests.
type weighted interface {
	VertexWeight(v int) int64
	TotalVertexWeight() int64
}

// Infeasible returns a non-nil reason when no complete bipartition of h
// can satisfy c: a single side's pinned weight already exceeds the
// bound, or the bound is too tight to hold the total at all.
func (c Constraint) Infeasible(h weighted) error {
	if !c.HasBalance() {
		return nil
	}
	total := h.TotalVertexWeight()
	maxSide := c.MaxSideWeight(total, 2)
	if total > 2*maxSide {
		return fmt.Errorf("partition: total weight %d exceeds 2×max side weight %d under epsilon %v", total, maxSide, c.Epsilon)
	}
	l, r := c.FixedWeights(h)
	if l > maxSide {
		return fmt.Errorf("partition: left-fixed weight %d exceeds max side weight %d", l, maxSide)
	}
	if r > maxSide {
		return fmt.Errorf("partition: right-fixed weight %d exceeds max side weight %d", r, maxSide)
	}
	return nil
}

// Key returns a canonical fingerprint of the constraint for cache keys
// and checkpoint metadata. The zero constraint maps to "" so that
// journals and cache entries written before constraints existed remain
// valid.
func (c Constraint) Key() string {
	if c.IsZero() {
		return ""
	}
	if !c.HasFixed() {
		return fmt.Sprintf("eps=%g", c.Epsilon)
	}
	d := fnv.New64a()
	n := 0
	for v := range c.FixedSide {
		if c.FixedSide[v] < 0 {
			continue
		}
		n++
		var buf [5]byte
		buf[0] = byte(c.FixedSide[v])
		buf[1] = byte(v)
		buf[2] = byte(v >> 8)
		buf[3] = byte(v >> 16)
		buf[4] = byte(v >> 24)
		d.Write(buf[:])
	}
	return fmt.Sprintf("eps=%g fixed=%d:%016x", c.Epsilon, n, d.Sum64())
}

package rebalance

import (
	"errors"
	"math/rand"
	"testing"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// bestBandMover and bestMover are the repair's choice rules as full
// rescans per move. They are the reference the incremental mover must
// match at every step.

// bestBandMover selects the vertex on `from` with the highest cut gain
// among free vertices of positive weight at most maxW (so the move can
// not push the opposite side over the bound) that do not empty the
// side. Ties break toward heavier vertices then lower index.
func bestBandMover(h *hypergraph.Hypergraph, s *cutstate.State, from partition.Side, maxW int64, fixed []int8) int {
	l, r, _ := s.Partition().Counts()
	if (from == partition.Left && l <= 1) || (from == partition.Right && r <= 1) {
		return -1
	}
	best := -1
	bestGain := 0
	var bestW int64
	for v := 0; v < h.NumVertices(); v++ {
		if s.Side(v) != from {
			continue
		}
		if v < len(fixed) && fixed[v] >= 0 {
			continue
		}
		w := h.VertexWeight(v)
		if w == 0 || w > maxW {
			continue
		}
		g := s.Gain(v)
		if best == -1 || g > bestGain ||
			(g == bestGain && (w > bestW || (w == bestW && v < best))) {
			best, bestGain, bestW = v, g, w
		}
	}
	return best
}

// bestMover selects the vertex on `from` with the highest cut gain
// whose move brings the balance strictly closer to target (weight at
// most 2×excess keeps us from overshooting into oscillation) and does
// not empty the side. Vertices pinned by fixed are skipped. Ties break
// toward heavier vertices (fewer moves) then lower index. Returns -1
// when nothing qualifies.
func bestMover(h *hypergraph.Hypergraph, s *cutstate.State, from partition.Side, excess int64, fixed []int8) int {
	l, r, _ := s.Partition().Counts()
	if (from == partition.Left && l <= 1) || (from == partition.Right && r <= 1) {
		return -1
	}
	best := -1
	bestGain := 0
	var bestW int64
	for v := 0; v < h.NumVertices(); v++ {
		if s.Side(v) != from {
			continue
		}
		if v < len(fixed) && fixed[v] >= 0 {
			continue
		}
		w := h.VertexWeight(v)
		if w == 0 || w >= 2*excess {
			// Zero-weight moves make no balance progress; over-heavy
			// moves would overshoot past the starting distance.
			continue
		}
		g := s.Gain(v)
		if best == -1 || g > bestGain ||
			(g == bestGain && (w > bestW || (w == bestW && v < best))) {
			best, bestGain, bestW = v, g, w
		}
	}
	return best
}

// randomInstance draws a small hypergraph with zero-weight, unit and
// heavy vertices and nets of 1–5 pins, a lopsided complete bipartition
// with both sides nonempty, and a fixed set of up to ~30% of the
// vertices on random sides.
func randomInstance(rng *rand.Rand) (*hypergraph.Hypergraph, *partition.Bipartition, []int8) {
	n := 2 + rng.Intn(40)
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		switch x := rng.Intn(10); {
		case x == 0:
			b.SetVertexWeight(v, 0)
		case x == 1:
			b.SetVertexWeight(v, int64(10+rng.Intn(40)))
		default:
			b.SetVertexWeight(v, int64(1+rng.Intn(4)))
		}
	}
	for e := rng.Intn(3 * n); e >= 0; e-- {
		pins := make([]int, 1+rng.Intn(5))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	h := b.MustBuild()

	leftShare := rng.Float64()
	p := partition.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < leftShare {
			p.Assign(v, partition.Left)
		} else {
			p.Assign(v, partition.Right)
		}
	}
	p.Assign(0, partition.Left)
	p.Assign(n-1, partition.Right)

	fixedShare := 0.3 * rng.Float64()
	fixed := make([]int8, rng.Intn(n+1))
	for v := range fixed {
		fixed[v] = partition.FreeVertex
		if rng.Float64() < fixedShare {
			fixed[v] = int8(rng.Intn(2))
		}
	}
	return h, p, fixed
}

// TestMoverMatchesReferenceScans runs Enforce and ToTargetFixed on
// random instances and checks each mover choice, -1 included, against
// the reference scan on the same state.
func TestMoverMatchesReferenceScans(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enforceSteps, targetSteps := 0, 0
	for trial := 0; trial < 3000; trial++ {
		h, p, fixed := randomInstance(rng)
		total := h.TotalVertexWeight()

		c := partition.Constraint{Epsilon: []float64{0.01, 0.05, 0.1, 0.3}[rng.Intn(4)], FixedSide: fixed}
		maxSide := c.MaxSideWeight(total, 2)
		_, err := enforce(h, p.Clone(), c, nil, func(s *cutstate.State, v int) {
			enforceSteps++
			lw, rw := s.Weights()
			from, fromW := partition.Left, lw
			if rw > maxSide {
				from, fromW = partition.Right, rw
			}
			if want := bestBandMover(h, s, from, fromW-(total-maxSide), fixed); v != want {
				t.Fatalf("trial %d: Enforce moves %d off %v, the scan picks %d", trial, v, from, want)
			}
		})
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("trial %d: Enforce: %v", trial, err)
		}

		target := rng.Int63n(total + 1)
		tol := rng.Int63n(total/10 + 1)
		_, err = toTarget(h, p.Clone(), target, tol, fixed, func(s *cutstate.State, v int) {
			targetSteps++
			lw, _ := s.Weights()
			from, excess := partition.Left, lw-target
			if lw < target {
				from, excess = partition.Right, target-lw
			}
			if want := bestMover(h, s, from, excess, fixed); v != want {
				t.Fatalf("trial %d: ToTargetFixed moves %d off %v, the scan picks %d", trial, v, from, want)
			}
		})
		if err != nil {
			t.Fatalf("trial %d: ToTargetFixed: %v", trial, err)
		}
	}
	// Guard against a generator that stops exercising the repair.
	if enforceSteps < 5000 || targetSteps < 5000 {
		t.Fatalf("compared only %d Enforce and %d ToTargetFixed choices", enforceSteps, targetSteps)
	}
}

// TestEnforceWorkIsLinear bounds the repair's work by counting it
// rather than timing it. On this path, half the vertices must cross
// one at a time; a scan per move would evaluate about 1.5·10⁸ gains.
func TestEnforceWorkIsLinear(t *testing.T) {
	const n = 20000
	h, p := lopsided(t, n)
	before := p.Clone()
	// ε this small leaves maxSide at ⌈total/2⌉: an exact bisection.
	work, err := enforce(h, p, partition.Constraint{Epsilon: 1e-6}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for v := 0; v < n; v++ {
		if p.Side(v) != before.Side(v) {
			moved++
		}
	}
	if moved < n/2-1 {
		t.Fatalf("moved %d vertices, want at least %d", moved, n/2-1)
	}
	if bound := 4 * (n + h.NumPins()); work > bound {
		t.Fatalf("Enforce did %d units of work for %d moves, over the linear bound 4·(n+pins) = %d", work, moved, bound)
	}
}

// entryBefore is the choice order the heap once compared entries by:
// higher gain, then heavier, then lower index.
func entryBefore(h *hypergraph.Hypergraph, ga, a, gb, b int) bool {
	if ga != gb {
		return ga > gb
	}
	if wa, wb := h.VertexWeight(a), h.VertexWeight(b); wa != wb {
		return wa > wb
	}
	return a < b
}

// TestKeysFollowChoiceOrder: packed keys compare as the choice order,
// and unpack to the vertex and gain they were packed from, for
// uniform weights (the identity order) and mixed ones.
func TestKeysFollowChoiceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		h, _, _ := randomInstance(rng)
		if trial%2 == 0 {
			h = hypergraph.NewBuilder(h.NumVertices()).MustBuild()
		}
		o := NewOrder(h)
		if (o.rank == nil) != (trial%2 == 0) {
			t.Fatalf("trial %d: identity order %v for uniform weights %v", trial, o.rank == nil, trial%2 == 0)
		}
		n := h.NumVertices()
		for i := 0; i < 200; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			ga, gb := rng.Intn(2001)-1000, rng.Intn(2001)-1000
			if rng.Intn(3) == 0 {
				gb = ga
			}
			ka, kb := o.key(a, ga), o.key(b, gb)
			if v, g := o.entry(ka); v != a || g != ga {
				t.Fatalf("trial %d: key of (%d, %d) unpacks to (%d, %d)", trial, a, ga, v, g)
			}
			if (ka > kb) != entryBefore(h, ga, a, gb, b) {
				t.Fatalf("trial %d: keys of (%d, gain %d) and (%d, gain %d) compare %v, the choice order says %v",
					trial, a, ga, b, gb, ka > kb, entryBefore(h, ga, a, gb, b))
			}
		}
	}
}

// TestSharedOrderMatchesPerCallOrder: repairs sharing one Order across
// goroutines (as Algorithm I's starts do) end where a repair building
// its own order does. Run it under -race.
func TestSharedOrderMatchesPerCallOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h, p, fixed := randomInstance(rng)
		c := partition.Constraint{Epsilon: 0.05, FixedSide: fixed}
		want := p.Clone()
		wantErr := Enforce(h, want, c)
		order := NewOrder(h)
		got := make([]*partition.Bipartition, 4)
		errs := make([]error, len(got))
		done := make(chan int)
		for i := range got {
			got[i] = p.Clone()
			go func(i int) {
				errs[i] = EnforceOrdered(h, got[i], c, order)
				done <- i
			}(i)
		}
		for range got {
			<-done
		}
		for i := range got {
			if (errs[i] == nil) != (wantErr == nil) {
				t.Fatalf("trial %d: shared order error %v, per-call %v", trial, errs[i], wantErr)
			}
			for v := 0; v < h.NumVertices(); v++ {
				if got[i].Side(v) != want.Side(v) {
					t.Fatalf("trial %d: vertex %d on %v with the shared order, %v without", trial, v, got[i].Side(v), want.Side(v))
				}
			}
		}
	}
	h, p, _ := randomInstance(rng)
	if err := EnforceOrdered(h, p, partition.Constraint{Epsilon: 0.01}, NewOrder(hypergraph.NewBuilder(h.NumVertices()+1).MustBuild())); err == nil {
		t.Error("accepted an order built for another hypergraph")
	}
}

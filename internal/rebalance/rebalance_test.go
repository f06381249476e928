package rebalance

import (
	"errors"
	"math/rand"
	"testing"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

func lopsided(t *testing.T, n int) (*hypergraph.Hypergraph, *partition.Bipartition) {
	t.Helper()
	b := hypergraph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	h := b.MustBuild()
	p := partition.New(n)
	p.Assign(0, partition.Right)
	for v := 1; v < n; v++ {
		p.Assign(v, partition.Left)
	}
	return h, p
}

func TestBisectRepairsLopsided(t *testing.T) {
	h, p := lopsided(t, 20)
	moved, err := ToTargetFixed(h, p, h.TotalVertexWeight()/2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	if imb := partition.Imbalance(h, p); imb != 0 {
		t.Errorf("imbalance %d after an even-split repair, want 0", imb)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestBisectMovesCheapVerticesOnAPath(t *testing.T) {
	// On a path, peeling from the light end keeps the cut at 1.
	h, p := lopsided(t, 16)
	if _, err := ToTargetFixed(h, p, h.TotalVertexWeight()/2, 1, nil); err != nil {
		t.Fatal(err)
	}
	if cut := partition.CutSize(h, p); cut != 1 {
		t.Errorf("cut = %d after rebalance on a path, want 1", cut)
	}
}

func TestToTargetDirections(t *testing.T) {
	h, p := lopsided(t, 12)
	// Target almost everything on the right.
	if _, err := ToTargetFixed(h, p, 2, 0, nil); err != nil {
		t.Fatal(err)
	}
	lw, _ := partition.SideWeights(h, p)
	if lw != 2 {
		t.Errorf("left weight = %d, want 2", lw)
	}
	// Back to heavy left.
	if _, err := ToTargetFixed(h, p, 10, 0, nil); err != nil {
		t.Fatal(err)
	}
	lw, _ = partition.SideWeights(h, p)
	if lw != 10 {
		t.Errorf("left weight = %d, want 10", lw)
	}
}

func TestAlreadyBalancedNoop(t *testing.T) {
	h, err := hypergraph.FromEdges(4, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := partition.FromSides([]partition.Side{partition.Left, partition.Left, partition.Right, partition.Right})
	moved, err := ToTargetFixed(h, p, h.TotalVertexWeight()/2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("moved %d on balanced input", moved)
	}
}

func TestGiantModuleStops(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(0, 100)
	h := b.MustBuild()
	p := partition.FromSides([]partition.Side{partition.Left, partition.Left, partition.Right})
	// Target 51 with tolerance 0: the giant cannot move without
	// overshooting; the small vertex moves, then progress stops.
	moved, err := ToTargetFixed(h, p, 51, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved > 2 {
		t.Errorf("moved %d, expected early stop", moved)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsInvalid(t *testing.T) {
	h, err := hypergraph.FromEdges(2, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToTargetFixed(h, partition.New(2), h.TotalVertexWeight()/2, 0, nil); err == nil {
		t.Error("accepted incomplete partition")
	}
}

func TestRandomInstancesConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(30)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, int64(1+rng.Intn(5)))
		}
		h := b.MustBuild()
		p := partition.New(n)
		p.Assign(0, partition.Right)
		for v := 1; v < n; v++ {
			p.Assign(v, partition.Left)
		}
		tol := h.TotalVertexWeight() / 10
		if _, err := ToTargetFixed(h, p, h.TotalVertexWeight()/2, tol, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(h); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Either within tolerance or stopped for a structural reason
		// (max vertex weight exceeds the remaining gap).
		imb := partition.Imbalance(h, p)
		if imb > 2*tol {
			maxW := int64(0)
			for v := 0; v < n; v++ {
				if h.VertexWeight(v) > maxW {
					maxW = h.VertexWeight(v)
				}
			}
			if imb > 2*maxW+2*tol {
				t.Errorf("trial %d: imbalance %d (tol %d, maxW %d)", trial, imb, tol, maxW)
			}
		}
	}
}

// TestBalanceBoundsTable drives ToTargetFixed over a table of weighted
// instances and checks the contract from the doc comment: the final
// left weight lands within tolerance whenever a legal mover sequence
// exists, sides stay nonempty, and every output still passes the
// shared invariant oracle.
func TestBalanceBoundsTable(t *testing.T) {
	type tc struct {
		name    string
		weights []int64
		edges   [][]int
		// start assigns vertices [0,split) Left, the rest Right.
		split      int
		targetLeft int64
		tol        int64
		wantWithin bool // |leftWeight − target| ≤ tol must hold after
		wantMoved  int  // exact move count, -1 to skip
	}
	cases := []tc{
		{
			name:    "unit-path-even-split",
			weights: []int64{1, 1, 1, 1, 1, 1, 1, 1},
			edges:   [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
			split:   7, targetLeft: 4, tol: 0, wantWithin: true, wantMoved: 3,
		},
		{
			name:    "already-within-noop",
			weights: []int64{1, 1, 1, 1},
			edges:   [][]int{{0, 1}, {2, 3}},
			split:   2, targetLeft: 2, tol: 1, wantWithin: true, wantMoved: 0,
		},
		{
			name:    "weighted-ends",
			weights: []int64{5, 1, 1, 1, 1, 1, 1, 5},
			edges:   [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
			split:   6, targetLeft: 8, tol: 1, wantWithin: true, wantMoved: -1,
		},
		{
			name:    "giant-module-infeasible",
			weights: []int64{100, 1, 1, 1},
			edges:   [][]int{{0, 1}, {1, 2}, {2, 3}},
			split:   1, targetLeft: 50, tol: 5, wantWithin: false, wantMoved: -1,
		},
		{
			name:    "drain-right-keeps-nonempty",
			weights: []int64{1, 1, 1, 1, 1, 1},
			edges:   [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
			split:   3, targetLeft: 6, tol: 0, wantWithin: false, wantMoved: -1,
		},
		{
			name:    "zero-weight-vertices-ignored",
			weights: []int64{1, 0, 0, 1, 1, 1},
			edges:   [][]int{{0, 1, 2}, {2, 3}, {3, 4}, {4, 5}},
			split:   4, targetLeft: 2, tol: 0, wantWithin: true, wantMoved: -1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := hypergraph.NewBuilder(len(c.weights))
			for v, w := range c.weights {
				b.SetVertexWeight(v, w)
			}
			for _, e := range c.edges {
				b.AddEdge(e...)
			}
			h := b.MustBuild()
			p := partition.New(len(c.weights))
			for v := range c.weights {
				if v < c.split {
					p.Assign(v, partition.Left)
				} else {
					p.Assign(v, partition.Right)
				}
			}
			moved, err := ToTargetFixed(h, p, c.targetLeft, c.tol, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Check(h, p)
			if err != nil {
				t.Fatalf("oracle rejected rebalanced partition: %v", err)
			}
			dist := rep.LeftWeight - c.targetLeft
			if dist < 0 {
				dist = -dist
			}
			if c.wantWithin && dist > c.tol {
				t.Errorf("left weight %d not within %d of target %d (moved %d)", rep.LeftWeight, c.tol, c.targetLeft, moved)
			}
			if !c.wantWithin && dist <= c.tol {
				t.Errorf("infeasible case unexpectedly reached target (left %d)", rep.LeftWeight)
			}
			if c.wantMoved >= 0 && moved != c.wantMoved {
				t.Errorf("moved %d vertices, want %d", moved, c.wantMoved)
			}
		})
	}
}

func TestToTargetNegativeTolerance(t *testing.T) {
	h, p := lopsided(t, 10)
	if _, err := ToTargetFixed(h, p, 5, -1, nil); !errors.Is(err, ErrNegativeTolerance) {
		t.Fatalf("ToTargetFixed(-1) error = %v, want ErrNegativeTolerance", err)
	}
}

func TestEnforceAppliesFixedAndBalance(t *testing.T) {
	h, p := lopsided(t, 16)
	c := partition.Constraint{
		Epsilon:   0.25,
		FixedSide: []int8{0, -1, -1, 1}, // vertex 0 Left, vertex 3 Right
	}
	if err := Enforce(h, p, c); err != nil {
		t.Fatal(err)
	}
	if p.Side(0) != partition.Left || p.Side(3) != partition.Right {
		t.Fatalf("fixed vertices not respected: %v %v", p.Side(0), p.Side(3))
	}
	maxSide := c.MaxSideWeight(h.TotalVertexWeight(), 2)
	l, r := partition.SideWeights(h, p)
	if l > maxSide || r > maxSide {
		t.Fatalf("sides %d|%d exceed maxSide %d", l, r, maxSide)
	}
	if _, err := verify.Check(h, p); err != nil {
		t.Fatal(err)
	}
}

func TestEnforceZeroConstraintIsNoop(t *testing.T) {
	h, p := lopsided(t, 8)
	before := append([]partition.Side(nil), p.Sides()...)
	if err := Enforce(h, p, partition.Constraint{}); err != nil {
		t.Fatal(err)
	}
	for v, s := range before {
		if p.Side(v) != s {
			t.Fatalf("zero constraint moved vertex %d", v)
		}
	}
}

func TestEnforceInfeasibleFixedWeight(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.SetVertexWeight(0, 10) // total 13, maxSide(eps=0.1) = 7
	h := b.MustBuild()
	p := partition.New(4)
	p.Assign(0, partition.Left)
	for v := 1; v < 4; v++ {
		p.Assign(v, partition.Right)
	}
	c := partition.Constraint{Epsilon: 0.1, FixedSide: []int8{0, -1, -1, -1}}
	if err := Enforce(h, p, c); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Enforce error = %v, want ErrInfeasible", err)
	}
}

func TestEnforceRepairsEmptySide(t *testing.T) {
	b := hypergraph.NewBuilder(5)
	b.AddEdge(0, 1, 2)
	b.AddEdge(2, 3, 4)
	// Vertex 0 is the lightest but fixed; 2 and 4 tie as the lightest
	// free vertices.
	for v, w := range []int64{1, 3, 2, 5, 2} {
		b.SetVertexWeight(v, w)
	}
	h := b.MustBuild()
	p := partition.New(5)
	for v := 0; v < 5; v++ {
		p.Assign(v, partition.Left)
	}
	// Vertex 0 is pinned where it already is, so ApplyFixed leaves
	// Right empty and the repair must pull a free vertex across.
	c := partition.Constraint{FixedSide: []int8{0, -1, -1, -1, -1}}
	if err := Enforce(h, p, c); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(h); err != nil {
		t.Fatalf("Enforce left an invalid partition: %v", err)
	}
	for v := 0; v < 5; v++ {
		want := partition.Left
		if v == 2 {
			want = partition.Right
		}
		if p.Side(v) != want {
			t.Fatalf("vertex %d on %v, want %v: only the lightest free vertex, lowest index on ties, crosses", v, p.Side(v), want)
		}
	}
}

func TestEnforceAllFixedOneSide(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.AddEdge(0, 1, 2)
	h := b.MustBuild()
	p := partition.New(3)
	for v := 0; v < 3; v++ {
		p.Assign(v, partition.Left)
	}
	c := partition.Constraint{FixedSide: []int8{0, 0, 0}}
	if err := Enforce(h, p, c); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Enforce error = %v, want ErrInfeasible", err)
	}
}

package multilevel

import (
	"errors"
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/core"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

func TestErrorTooSmall(t *testing.T) {
	h, err := hypergraph.FromEdges(1, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bisect(h, Options{}); err == nil {
		t.Error("accepted 1-vertex hypergraph")
	}
}

func TestValidOnProfiles(t *testing.T) {
	for _, tech := range []gen.Technology{gen.StdCell, gen.PCB} {
		rng := rand.New(rand.NewSource(int64(tech)))
		h, err := gen.Profile(gen.ProfileConfig{Modules: 400, Signals: 800, Technology: tech}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Bisect(h, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if got := partition.CutSize(h, res.Partition); got != res.CutSize {
			t.Errorf("%v: reported %d != recomputed %d", tech, res.CutSize, got)
		}
		if res.Levels < 1 {
			t.Errorf("%v: no coarsening levels used", tech)
		}
		if res.CoarsestVertices > 128 {
			t.Errorf("%v: coarsest %d vertices", tech, res.CoarsestVertices)
		}
	}
}

func TestSmallInputSkipsCoarsening(t *testing.T) {
	h, err := hypergraph.FromEdges(8, [][]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bisect(h, Options{Seed: 2, MinCoarseVertices: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 0 {
		t.Errorf("levels = %d, want 0 for an already-small input", res.Levels)
	}
	if res.CutSize != 1 {
		t.Errorf("cut = %d, want 1", res.CutSize)
	}
}

func TestMatchesOptimumOnSmall(t *testing.T) {
	h, err := hypergraph.FromEdges(10, [][]int{
		{0, 1, 2}, {2, 3, 4}, {0, 4}, {1, 3},
		{5, 6, 7}, {7, 8, 9}, {5, 9}, {6, 8},
		{4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := bruteforce.MinCut(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	best := 1 << 30
	for seed := int64(0); seed < 5; seed++ {
		res, err := Bisect(h, Options{Seed: seed, MinCoarseVertices: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != opt {
		t.Errorf("best multilevel cut = %d, optimum = %d", best, opt)
	}
}

func TestCompetitiveWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h, err := gen.Profile(gen.ProfileConfig{Modules: 600, Signals: 1200, Technology: gen.StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Bisect(h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.Bipartition(h, core.Options{Starts: 10, Seed: 3, Threshold: 10, BalancedBFS: true, Completion: core.CompletionWeighted})
	if err != nil {
		t.Fatal(err)
	}
	// The multilevel scheme with FM refinement should be at least
	// competitive with a balanced flat run (generous 2x envelope keeps
	// the test robust across platforms).
	if flat.CutSize > 0 && ml.CutSize > 2*flat.CutSize {
		t.Errorf("multilevel cut %d far worse than flat %d", ml.CutSize, flat.CutSize)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h, err := gen.Profile(gen.ProfileConfig{Modules: 200, Signals: 400, Technology: gen.GateArray}, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Bisect(h, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(h, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutSize != b.CutSize {
		t.Error("same seed gave different cuts")
	}
}

// TestConstraintThroughVCycle pins vertices on a large instance (so
// real coarsening levels are built) and requires the full V-cycle —
// fixed-aware coarsening, constrained coarsest cut, constrained
// per-level refinement, final enforcement — to deliver a partition
// honoring both the pins and the ε bound.
func TestConstraintThroughVCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h, err := gen.Profile(gen.ProfileConfig{Modules: 400, Signals: 800, Technology: gen.StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := h.NumVertices()
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = partition.FreeVertex
	}
	for v := 0; v < 10; v++ {
		fixed[v] = 0
		fixed[n-1-v] = 1
	}
	c := partition.Constraint{Epsilon: 0.15, FixedSide: fixed}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Bisect(h, Options{Seed: seed, Constraint: c})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Levels < 1 {
			t.Fatalf("seed %d: no coarsening levels — the test exercises nothing", seed)
		}
		if !c.RespectsFixed(res.Partition) {
			t.Errorf("seed %d: fixed vertex moved through the V-cycle", seed)
		}
		maxSide := c.MaxSideWeight(h.TotalVertexWeight(), 2)
		l, r := partition.SideWeights(h, res.Partition)
		if l > maxSide || r > maxSide {
			t.Errorf("seed %d: side weights %d/%d exceed bound %d", seed, l, r, maxSide)
		}
	}
}

// TestInfeasibleConstraintReported: three vertices of weight 4 admit
// only an 8|4 split, over the ε = 0.01 max side of 6. The V-cycle's
// final repair must report that rather than return the violating
// partition.
func TestInfeasibleConstraintReported(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	for v := 0; v < 3; v++ {
		b.SetVertexWeight(v, 4)
	}
	h := b.MustBuild()
	res, err := Bisect(h, Options{Constraint: partition.Constraint{Epsilon: 0.01}})
	if err == nil {
		l, r := partition.SideWeights(h, res.Partition)
		t.Fatalf("Bisect returned sides %d|%d, want ErrInfeasible", l, r)
	}
	if !errors.Is(err, rebalance.ErrInfeasible) {
		t.Fatalf("Bisect error = %v, want ErrInfeasible", err)
	}
}

// TestConstraintOppositePinsNeverContracted: coarsening must not merge
// two vertices pinned to opposite sides — the coarse vertex could not
// carry both pins. Indirectly certified by the pins surviving every
// level of projection on an instance where they are adjacent.
func TestConstraintOppositePinsNeverContracted(t *testing.T) {
	// A tight chain where naturally every neighbor pair is a contraction
	// candidate; adjacent vertices are pinned to opposite sides.
	b := hypergraph.NewBuilder(64)
	for i := 0; i+1 < 64; i++ {
		b.AddEdge(i, i+1)
	}
	h := b.MustBuild()
	fixed := make([]int8, 64)
	for i := range fixed {
		fixed[i] = partition.FreeVertex
	}
	fixed[30] = 0
	fixed[31] = 1 // adjacent and opposite: the tempting contraction
	c := partition.Constraint{FixedSide: fixed}
	res, err := Bisect(h, Options{Seed: 4, MinCoarseVertices: 8, Constraint: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Side(30) != partition.Left || res.Partition.Side(31) != partition.Right {
		t.Errorf("opposite pins broken: v30=%v v31=%v", res.Partition.Side(30), res.Partition.Side(31))
	}
}

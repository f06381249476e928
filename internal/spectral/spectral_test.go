package spectral

import (
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

func mkHG(t *testing.T, n int, edges [][]int) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestErrorTooSmall(t *testing.T) {
	h := mkHG(t, 1, [][]int{{0}})
	if _, err := Bisect(h, Options{}); err == nil {
		t.Error("accepted 1-vertex hypergraph")
	}
}

func TestBarbell(t *testing.T) {
	// Two triangles and a bridge: the Fiedler sweep must find cut 1.
	h := mkHG(t, 6, [][]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
	res, err := Bisect(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutSize != 1 {
		t.Errorf("cut = %d, want 1", res.CutSize)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatal(err)
	}
	if got := partition.CutSize(h, res.Partition); got != res.CutSize {
		t.Errorf("reported %d != recomputed %d", res.CutSize, got)
	}
	// The triangles must not be split.
	if res.Partition.Side(0) != res.Partition.Side(1) || res.Partition.Side(1) != res.Partition.Side(2) {
		t.Errorf("left triangle split: %v", res.Partition.Sides())
	}
}

func TestFiedlerSeparatesClusters(t *testing.T) {
	h := mkHG(t, 8, [][]int{
		{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2},
		{4, 5}, {5, 6}, {6, 7}, {4, 7}, {5, 7},
		{3, 4},
	})
	res, err := Bisect(h, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// All cluster-0 Fiedler values on one side of all cluster-1 values.
	maxA, minB := -1e18, 1e18
	for v := 0; v < 4; v++ {
		if res.Fiedler[v] > maxA {
			maxA = res.Fiedler[v]
		}
	}
	for v := 4; v < 8; v++ {
		if res.Fiedler[v] < minB {
			minB = res.Fiedler[v]
		}
	}
	separated := maxA < minB
	// Sign is arbitrary; accept either orientation.
	if !separated {
		minA, maxB := 1e18, -1e18
		for v := 0; v < 4; v++ {
			if res.Fiedler[v] < minA {
				minA = res.Fiedler[v]
			}
		}
		for v := 4; v < 8; v++ {
			if res.Fiedler[v] > maxB {
				maxB = res.Fiedler[v]
			}
		}
		separated = maxB < minA
	}
	if !separated {
		t.Errorf("Fiedler coordinates do not separate the clusters: %v", res.Fiedler)
	}
}

func TestMatchesBruteForceOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(5)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < 3*n/2; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		res, err := Bisect(h, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := bruteforce.MinCutUnconstrained(h)
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < opt {
			t.Fatalf("trial %d: spectral cut %d below exact optimum %d", trial, res.CutSize, opt)
		}
	}
}

func TestBalanceWindowRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h, err := gen.Profile(gen.ProfileConfig{Modules: 200, Signals: 400, Technology: gen.StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bisect(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lw, rw := partition.SideWeights(h, res.Partition)
	minSide := int64(sweepMinFraction * float64(h.TotalVertexWeight()))
	if lw < minSide || rw < minSide {
		t.Errorf("balance window violated: %d | %d (min %d)", lw, rw, minSide)
	}
}

func TestLargeNetsSkippedButCounted(t *testing.T) {
	// A giant net one pin over maxCliqueSize next to a 2-pin net: the
	// giant adds nothing to the clique expansion, yet every bipartition
	// cuts it and the reported cutsize counts it.
	n := maxCliqueSize + 1
	b := hypergraph.NewBuilder(n)
	b.AddEdge(0, 1)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	giant := b.AddEdge(all...)
	h := b.MustBuild()
	adj, deg := cliqueExpand(h, maxCliqueSize)
	if len(adj[0]) != 1 || len(adj[1]) != 1 {
		t.Errorf("2-pin net expanded to %d|%d arcs, want 1|1", len(adj[0]), len(adj[1]))
	}
	for v := 2; v < n; v++ {
		if len(adj[v]) != 0 || deg[v] != 0 {
			t.Fatalf("vertex %d got %d arcs (degree %g) from the giant net", v, len(adj[v]), deg[v])
		}
	}
	res, err := Bisect(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !partition.Crosses(h, res.Partition, giant) {
		t.Error("a bipartition of every pin left the giant net uncut")
	}
	if got := partition.CutSize(h, res.Partition); res.CutSize != got {
		t.Errorf("reported cut %d, recomputed %d", res.CutSize, got)
	}
}

func TestEdgelessFallsBack(t *testing.T) {
	h := mkHG(t, 4, nil)
	res, err := Bisect(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatal(err)
	}
	if res.CutSize != 0 {
		t.Errorf("cut = %d on edgeless input", res.CutSize)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h, err := gen.Profile(gen.ProfileConfig{Modules: 100, Signals: 200, Technology: gen.GateArray}, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Bisect(h, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(h, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutSize != b.CutSize || a.Iterations != b.Iterations {
		t.Error("same seed gave different results")
	}
}

package anneal

import (
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
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

func TestValidAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(12)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		res, err := Bisect(h, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := partition.CutSize(h, res.Partition); got != res.CutSize {
			t.Errorf("trial %d: reported %d != recomputed %d", trial, res.CutSize, got)
		}
		if res.Temperatures == 0 {
			t.Errorf("trial %d: no temperature steps ran", trial)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	h := mkHG(t, 10, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {4, 5}})
	a, err := Bisect(h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutSize != b.CutSize || a.Accepted != b.Accepted {
		t.Error("same seed produced different runs")
	}
}

func TestFindsBridge(t *testing.T) {
	b := hypergraph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
		b.AddEdge(6+i, 6+(i+1)%6)
	}
	b.AddEdge(0, 6)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 3; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != 1 {
		t.Errorf("best SA cut = %d, want 1", best)
	}
}

func TestBalanceFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 20
	b := hypergraph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int64(1+rng.Intn(4)))
	}
	h := b.MustBuild()
	res, err := Bisect(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	window := int64(windowFraction * float64(h.TotalVertexWeight()))
	if imb := partition.Imbalance(h, res.Partition); imb > window {
		t.Errorf("imbalance %d beyond window %d", imb, window)
	}
}

func TestNearOptimalOnSmall(t *testing.T) {
	h := mkHG(t, 8, [][]int{
		{0, 1, 2}, {1, 2, 3}, {0, 3},
		{4, 5, 6}, {5, 6, 7}, {4, 7},
		{3, 4},
	})
	_, opt, err := bruteforce.MinBisection(h)
	if err != nil {
		t.Fatal(err)
	}
	best := 1 << 30
	for seed := int64(0); seed < 4; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != opt {
		t.Errorf("best SA cut = %d, optimum = %d", best, opt)
	}
}

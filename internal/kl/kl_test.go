package kl

import (
	"math"
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/cutstate"
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

func TestErrors(t *testing.T) {
	h := mkHG(t, 1, [][]int{{0}})
	if _, err := Bisect(h, Options{}); err == nil {
		t.Error("accepted 1-vertex hypergraph")
	}
	h2 := mkHG(t, 4, [][]int{{0, 1}})
	if _, err := Improve(h2, partition.New(4), Options{}); err == nil {
		t.Error("accepted incomplete initial partition")
	}
}

func TestRandomBisectionBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 5, 10, 31} {
		p := RandomBisection(n, rng)
		if !partition.IsBisection(p) {
			l, r, _ := p.Counts()
			t.Errorf("n=%d: split %d|%d not a bisection", n, l, r)
		}
	}
}

func TestPreservesCardinalities(t *testing.T) {
	h := mkHG(t, 8, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {5, 6}, {0, 7}, {3, 4}})
	rng := rand.New(rand.NewSource(3))
	p := RandomBisection(8, rng)
	l0, r0, _ := p.Counts()
	res, err := Improve(h, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1, r1, _ := res.Partition.Counts()
	if l0 != l1 || r0 != r1 {
		t.Errorf("cardinalities changed: %d|%d → %d|%d", l0, r0, l1, r1)
	}
}

func TestFindsBridgeCut(t *testing.T) {
	// Two 2-connected blocks of 6 joined by one edge; optimum bisection
	// cuts 1.
	b := hypergraph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
		b.AddEdge(6+i, 6+(i+1)%6)
	}
	b.AddEdge(0, 6)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 5; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
		if got := partition.CutSize(h, res.Partition); got != res.CutSize {
			t.Fatalf("reported cut %d != recomputed %d", res.CutSize, got)
		}
	}
	if best != 1 {
		t.Errorf("best KL cut over 5 seeds = %d, want 1", best)
	}
}

func TestNeverWorseThanInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 6 + 2*rng.Intn(8)
		m := n + rng.Intn(3*n)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			size := 2 + rng.Intn(3)
			pins := make([]int, size)
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		p := RandomBisection(n, rng)
		before := partition.CutSize(h, p)
		res, err := Improve(h, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize > before {
			t.Errorf("trial %d: KL worsened cut %d → %d", trial, before, res.CutSize)
		}
		if res.Passes < 1 || res.Passes > 10 {
			t.Errorf("trial %d: passes = %d", trial, res.Passes)
		}
	}
}

func TestMatchesBruteForceOnSmall(t *testing.T) {
	// KL is a local heuristic; with a few restarts it should match the
	// optimum bisection on small structured instances.
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
	for seed := int64(0); seed < 8; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != opt {
		t.Errorf("best KL cut = %d, optimum = %d", best, opt)
	}
}

func TestCandidatesOptionRespected(t *testing.T) {
	// One candidate restricts pairing to the single top-gain vertex per
	// side; passes must still terminate, keep the side counts, and leave
	// a valid bisection with the cut the state reports.
	h := mkHG(t, 6, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	p := RandomBisection(h.NumVertices(), rand.New(rand.NewSource(2)))
	s, err := cutstate.New(h, p)
	if err != nil {
		t.Fatal(err)
	}
	locked := make([]bool, h.NumVertices())
	for pass := 0; pass < 3; pass++ {
		if runPass(s, 1, locked, partition.Constraint{}, math.MaxInt64) <= 0 {
			break
		}
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
	if l, r, _ := p.Counts(); l != 3 || r != 3 {
		t.Errorf("sides %d|%d, want 3|3", l, r)
	}
	if got := partition.CutSize(h, p); got != s.Cut() {
		t.Errorf("cut %d, state reports %d", got, s.Cut())
	}
}

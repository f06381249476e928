package kway

import (
	"math"
	"math/rand"
	"testing"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

func profileHG(t *testing.T, n, m int) *hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	h, err := gen.Profile(gen.ProfileConfig{Modules: n, Signals: m, Technology: gen.StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestErrors(t *testing.T) {
	h := profileHG(t, 40, 80)
	if _, err := Partition(h, Options{K: 1}); err == nil {
		t.Error("accepted K=1")
	}
	if _, err := Partition(h, Options{K: 41}); err == nil {
		t.Error("accepted K > n")
	}
}

func TestPartitionBasics(t *testing.T) {
	h := profileHG(t, 200, 420)
	for _, k := range []int{2, 3, 4, 7, 8} {
		res, err := Partition(h, Options{K: k, Seed: int64(k)})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.K != k || len(res.Part) != h.NumVertices() {
			t.Fatalf("K=%d: malformed result", k)
		}
		counts := make([]int, k)
		for v, p := range res.Part {
			if p < 0 || p >= k {
				t.Fatalf("K=%d: vertex %d part %d out of range", k, v, p)
			}
			counts[p]++
		}
		for p, c := range counts {
			if c == 0 {
				t.Errorf("K=%d: part %d empty", k, p)
			}
		}
		// PartWeights consistent.
		var sum int64
		for _, w := range res.PartWeights {
			sum += w
		}
		if sum != h.TotalVertexWeight() {
			t.Errorf("K=%d: part weights sum %d != total %d", k, sum, h.TotalVertexWeight())
		}
		// Connectivity dominates cut nets and is bounded by (k-1)·cut.
		if res.Connectivity < int64(res.CutNets) {
			t.Errorf("K=%d: connectivity %d < cut nets %d", k, res.Connectivity, res.CutNets)
		}
		if res.Connectivity > int64(k-1)*int64(res.CutNets) {
			t.Errorf("K=%d: connectivity %d > (k-1)*cutnets", k, res.Connectivity)
		}
	}
}

func TestMetricsKnown(t *testing.T) {
	h, err := hypergraph.FromEdges(6, [][]int{
		{0, 1},       // inside part 0
		{0, 2},       // parts 0,1 → λ=2
		{0, 2, 4},    // parts 0,1,2 → λ=3
		{4, 5},       // inside part 2
		{1, 3, 5, 2}, // parts 0,1,2 → λ=3
	})
	if err != nil {
		t.Fatal(err)
	}
	part := []int{0, 0, 1, 1, 2, 2}
	cut, conn := Metrics(h, part, 3)
	if cut != 3 {
		t.Errorf("cut nets = %d, want 3", cut)
	}
	if conn != 1+2+2 {
		t.Errorf("connectivity = %d, want 5", conn)
	}
}

func TestK2MatchesBipartitionMetrics(t *testing.T) {
	h := profileHG(t, 120, 250)
	res, err := Partition(h, Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// For K=2 connectivity == cut nets.
	if res.Connectivity != int64(res.CutNets) {
		t.Errorf("K=2: connectivity %d != cut nets %d", res.Connectivity, res.CutNets)
	}
}

func TestBalanceAcrossParts(t *testing.T) {
	h := profileHG(t, 240, 500)
	res, err := Partition(h, Options{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ideal := h.TotalVertexWeight() / 4
	for p, w := range res.PartWeights {
		if w < ideal/3 || w > 3*ideal {
			t.Errorf("part %d weight %d far from ideal %d", p, w, ideal)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	h := profileHG(t, 100, 200)
	a, err := Partition(h, Options{K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, Options{K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Part {
		if a.Part[v] != b.Part[v] {
			t.Fatal("same seed gave different partitions")
		}
	}
}

func TestKEqualsN(t *testing.T) {
	h, err := hypergraph.FromEdges(5, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(h, Options{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range res.Part {
		if seen[p] {
			t.Fatal("K=n must give singleton parts")
		}
		seen[p] = true
	}
	// Every net crosses when each vertex is its own part.
	if res.CutNets != h.NumEdges() {
		t.Errorf("cut nets = %d, want all %d", res.CutNets, h.NumEdges())
	}
}

func TestLevelEpsilonCompounds(t *testing.T) {
	// Splitting ε across ⌈log₂K⌉ recursion levels must compound back to
	// the requested bound: (1+ε′)^depth = 1+ε.
	for _, tc := range []struct {
		k     int
		eps   float64
		depth int
	}{
		{2, 0.1, 1}, {4, 0.1, 2}, {8, 0.3, 3}, {6, 0.2, 3}, {16, 0.05, 4},
	} {
		got := levelEpsilon(Options{K: tc.k, Constraint: partition.Constraint{Epsilon: tc.eps}})
		compound := math.Pow(1+got, float64(tc.depth)) - 1
		if math.Abs(compound-tc.eps) > 1e-12 {
			t.Errorf("K=%d ε=%g: per-level %g compounds to %g", tc.k, tc.eps, got, compound)
		}
	}
}

// TestConstraintKWayFixed drives 4-way partitioning with vertices
// pinned to specific parts: every pin must land on its part, every part
// stays nonempty, and part weights respect the compounded ε bound.
func TestConstraintKWayFixed(t *testing.T) {
	h := profileHG(t, 120, 260)
	n := h.NumVertices()
	const k = 4
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = partition.FreeVertex
	}
	// One pin per part, spread across the vertex range.
	pins := map[int]int8{0: 0, 17: 1, 63: 2, n - 1: 3}
	for v, p := range pins {
		fixed[v] = p
	}
	c := partition.Constraint{Epsilon: 0.3, FixedSide: fixed}
	res, err := Partition(h, Options{K: k, Seed: 5, Constraint: c})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range pins {
		if res.Part[v] != int(p) {
			t.Errorf("pinned vertex %d on part %d, want %d", v, res.Part[v], p)
		}
	}
	maxPart := c.MaxSideWeight(h.TotalVertexWeight(), k)
	for p, w := range res.PartWeights {
		if w == 0 {
			t.Errorf("part %d empty", p)
		}
		if w > maxPart {
			t.Errorf("part %d weight %d exceeds (1+ε)-bound %d", p, w, maxPart)
		}
	}
}

func TestConstraintKWayRejectsWideKWithFixed(t *testing.T) {
	h := profileHG(t, 300, 600)
	fixed := make([]int8, h.NumVertices())
	for i := range fixed {
		fixed[i] = partition.FreeVertex
	}
	fixed[0] = 0
	if _, err := Partition(h, Options{K: 128, Constraint: partition.Constraint{FixedSide: fixed}}); err == nil {
		t.Error("accepted K=128 with fixed vertices (int8 side encoding tops out at 127)")
	}
}

// TestPartsWithinBoundForOddSplits covers K that are not powers of two,
// where a split divides its parts unevenly: on random unit-weight
// instances (n in [64,128), 2n nets of 2–4 pins) every part must weigh
// at most MaxSideWeight(W, K), under the default ε and an explicit one.
// FM's bisection contract used to pull each uneven split back toward
// half, leaving some parts near twice an even share.
func TestPartsWithinBoundForOddSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{3, 5, 6, 7} {
		for trial := 0; trial < 3; trial++ {
			n := 64 + rng.Intn(64)
			b := hypergraph.NewBuilder(n)
			for i := 0; i < 2*n; i++ {
				b.AddEdge(rng.Perm(n)[:2+rng.Intn(3)]...)
			}
			h := b.MustBuild()
			for _, eps := range []float64{0, 0.2} {
				res, err := Partition(h, Options{K: k, Seed: int64(trial), Constraint: partition.Constraint{Epsilon: eps}})
				if err != nil {
					t.Fatalf("K=%d ε=%g: %v", k, eps, err)
				}
				bound := partition.Constraint{Epsilon: eps}
				if eps == 0 {
					bound.Epsilon = defaultEpsilon
				}
				maxPart := bound.MaxSideWeight(h.TotalVertexWeight(), k)
				for p, w := range res.PartWeights {
					if w > maxPart {
						t.Errorf("K=%d ε=%g n=%d: part %d weighs %d, bound %d (parts %v)",
							k, eps, h.NumVertices(), p, w, maxPart, res.PartWeights)
					}
				}
			}
		}
	}
}

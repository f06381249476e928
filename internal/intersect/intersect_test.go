package intersect

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fasthgp/internal/hypergraph"
)

func mkHG(t *testing.T, n int, edges [][]int) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFigure1Construction mirrors the paper's Figure 1: a hypergraph
// with 8 modules and 5 nets A–E and its intersection graph. Our
// reconstruction: A={1,2}, B={2,3,4}, C={4,5}, D={5,6,7}, E={7,8}
// (0-indexed below), whose intersection graph is the path A–B–C–D–E.
func TestFigure1Construction(t *testing.T) {
	h := mkHG(t, 8, [][]int{
		{0, 1},    // A
		{1, 2, 3}, // B
		{3, 4},    // C
		{4, 5, 6}, // D
		{6, 7},    // E
	})
	res := Build(h, Options{})
	g := res.G
	if g.NumVertices() != 5 {
		t.Fatalf("G vertices = %d, want 5", g.NumVertices())
	}
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("G edges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing G edge %v", e)
		}
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 4) {
		t.Error("spurious adjacency between disjoint nets")
	}
	if len(res.Excluded) != 0 {
		t.Errorf("Excluded = %v, want none", res.Excluded)
	}
	if !reflect.DeepEqual(res.NetOf, []int{0, 1, 2, 3, 4}) {
		t.Errorf("NetOf = %v", res.NetOf)
	}
}

func TestSharedCliques(t *testing.T) {
	// Three nets all through module 0 ⇒ triangle in G.
	h := mkHG(t, 4, [][]int{{0, 1}, {0, 2}, {0, 3}})
	g := Build(h, Options{}).G
	if g.NumEdges() != 3 {
		t.Errorf("G edges = %d, want 3 (clique)", g.NumEdges())
	}
}

func TestNoDuplicateAdjacency(t *testing.T) {
	// Nets sharing two modules still yield a single G edge.
	h := mkHG(t, 3, [][]int{{0, 1}, {0, 1, 2}})
	g := Build(h, Options{}).G
	if g.NumEdges() != 1 {
		t.Errorf("G edges = %d, want 1", g.NumEdges())
	}
}

func TestThresholdFiltering(t *testing.T) {
	h := mkHG(t, 6, [][]int{
		{0, 1},             // small
		{0, 1, 2, 3, 4, 5}, // big (6 pins)
		{4, 5},             // small
	})
	res := Build(h, Options{Threshold: 5})
	if got := res.NumIncluded(); got != 2 {
		t.Fatalf("included = %d, want 2", got)
	}
	if !reflect.DeepEqual(res.Excluded, []int{1}) {
		t.Errorf("Excluded = %v, want [1]", res.Excluded)
	}
	if res.GVertexOf[1] != -1 {
		t.Errorf("GVertexOf[1] = %d, want -1", res.GVertexOf[1])
	}
	// Without the big net the two small nets are disjoint.
	if res.G.NumEdges() != 0 {
		t.Errorf("G edges = %d, want 0 after filtering", res.G.NumEdges())
	}
	// Threshold exactly at the size excludes (>= semantics).
	res2 := Build(h, Options{Threshold: 6})
	if len(res2.Excluded) != 1 {
		t.Errorf("threshold=6 Excluded = %v, want the 6-pin net", res2.Excluded)
	}
	res3 := Build(h, Options{Threshold: 7})
	if len(res3.Excluded) != 0 {
		t.Errorf("threshold=7 Excluded = %v, want none", res3.Excluded)
	}
}

func TestThresholdZeroKeepsAll(t *testing.T) {
	h := mkHG(t, 4, [][]int{{0, 1, 2, 3}})
	res := Build(h, Options{Threshold: 0})
	if len(res.Excluded) != 0 || res.NumIncluded() != 1 {
		t.Error("Threshold 0 should disable filtering")
	}
}

func TestSharedModule(t *testing.T) {
	h := mkHG(t, 5, [][]int{{0, 1, 2}, {2, 3}, {3, 4}})
	if got := SharedModule(h, 0, 1); got != 2 {
		t.Errorf("SharedModule(0,1) = %d, want 2", got)
	}
	if got := SharedModule(h, 0, 2); got != -1 {
		t.Errorf("SharedModule(0,2) = %d, want -1", got)
	}
	if got := SharedModule(h, 1, 2); got != 3 {
		t.Errorf("SharedModule(1,2) = %d, want 3", got)
	}
}

func randomHG(rng *rand.Rand, n, m, maxSize int) (*hypergraph.Hypergraph, error) {
	b := hypergraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		size := 1 + rng.Intn(maxSize)
		pins := make([]int, size)
		for j := range pins {
			pins[j] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	return b.Build()
}

// TestPropertyAdjacencyIffShared: G has edge {i,j} iff the nets share a
// module — verified against the mergesort-style SharedModule oracle.
func TestPropertyAdjacencyIffShared(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := rng.Intn(15)
		h, err := randomHG(rng, n, m, 5)
		if err != nil {
			return false
		}
		res := Build(h, Options{})
		for i := 0; i < res.NumIncluded(); i++ {
			for j := i + 1; j < res.NumIncluded(); j++ {
				shared := SharedModule(h, res.NetOf[i], res.NetOf[j]) >= 0
				if res.G.HasEdge(i, j) != shared {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyThresholdConsistent: with a threshold, excluded nets are
// exactly those of size >= threshold, and mappings are inverse.
func TestPropertyThresholdConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := rng.Intn(20)
		h, err := randomHG(rng, n, m, 8)
		if err != nil {
			return false
		}
		thr := 2 + rng.Intn(6)
		res := Build(h, Options{Threshold: thr})
		seen := 0
		for e := 0; e < h.NumEdges(); e++ {
			gi := res.GVertexOf[e]
			if h.EdgeSize(e) >= thr {
				if gi != -1 {
					return false
				}
				seen++
			} else {
				if gi < 0 || res.NetOf[gi] != e {
					return false
				}
			}
		}
		return seen == len(res.Excluded) &&
			res.NumIncluded()+len(res.Excluded) == h.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := mkHG(t, 3, nil)
	res := Build(h, Options{})
	if res.G.NumVertices() != 0 || res.G.NumEdges() != 0 {
		t.Error("intersection graph of edgeless hypergraph not empty")
	}
}

// TestBuildPicksForm pins the storage-form rule: bitset rows when
// n·⌈n/64⌉ is within the clique-pair bound, CSR otherwise, with the
// same arc count reported either way. The deprecated Parallelism field
// no longer forces CSR.
func TestBuildPicksForm(t *testing.T) {
	// A hub module in 100 two-pin nets: 100·2 words ≤ C(100,2) pairs.
	star := make([][]int, 100)
	for i := range star {
		star[i] = []int{0, i + 1}
	}
	hub := mkHG(t, 101, star)
	// A path of 100 two-pin nets: 99 pairs < 100·2 words.
	chain := make([][]int, 100)
	for i := range chain {
		chain[i] = []int{i, i + 1}
	}
	line := mkHG(t, 101, chain)
	for _, tc := range []struct {
		name   string
		h      *hypergraph.Hypergraph
		opts   Options
		bitset bool
	}{
		{"hub", hub, Options{}, true},
		{"hub-parallel", hub, Options{Parallelism: 2}, true},
		{"hub-excluded", hub, Options{Threshold: 2}, true}, // empty G: 0 ≤ 0
		{"path", line, Options{}, false},
	} {
		var stats BuildStats
		res := BuildCounted(tc.h, tc.opts, &stats)
		if res.G.Bitset() != tc.bitset {
			t.Errorf("%s: Bitset() = %v, want %v", tc.name, res.G.Bitset(), tc.bitset)
		}
		want := 0
		for _, e := range res.NetOf {
			for _, m := range tc.h.EdgePins(e) {
				want += tc.h.VertexDegree(m)
			}
		}
		if stats.TotalArcs != want {
			t.Errorf("%s: TotalArcs = %d, want %d", tc.name, stats.TotalArcs, want)
		}
	}
}

package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

func randomHG(rng *rand.Rand, n, m int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		size := 2 + rng.Intn(3)
		pins := make([]int, size)
		for j := range pins {
			pins[j] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int64(1+rng.Intn(4)))
	}
	return b.MustBuild()
}

// heavyEdgeReference is the historical map-based greedy, kept as a
// differential oracle for the array-scored implementation, with the
// net-size cap on rating.
func heavyEdgeReference(h *hypergraph.Hypergraph, rng *rand.Rand, opts HeavyEdgeOptions) []int {
	n := h.NumVertices()
	side := func(v int) int8 {
		if v < len(opts.Fixed) {
			return opts.Fixed[v]
		}
		return partition.FreeVertex
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = Unmatched
	}
	order := rng.Perm(n)
	score := make(map[int]float64, 8)
	for _, v := range order {
		if mate[v] != Unmatched {
			continue
		}
		clear(score)
		for _, e := range h.VertexEdges(v) {
			size := h.EdgeSize(e)
			if size < 2 || size > maxRatedNet {
				continue
			}
			w := float64(h.EdgeWeight(e)) / float64(size-1)
			for _, u := range h.EdgePins(e) {
				if u == v || mate[u] != Unmatched {
					continue
				}
				if sv, su := side(v), side(u); sv >= 0 && su >= 0 && sv != su {
					continue
				}
				if opts.MaxPairWeight > 0 && h.VertexWeight(v)+h.VertexWeight(u) > opts.MaxPairWeight {
					continue
				}
				score[u] += w
			}
		}
		best, bestScore := Unmatched, 0.0
		for u, s := range score {
			if s > bestScore || (s == bestScore && best != Unmatched && u < best) {
				best, bestScore = u, s
			}
		}
		if best != Unmatched {
			mate[v] = best
			mate[best] = v
		}
	}
	return mate
}

func TestHeavyEdgeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		if rng.Intn(4) == 0 {
			n += 2 * maxRatedNet // room for nets on both sides of the cap
		}
		h := randomHG(rng, n, 2*n)
		if n > maxRatedNet {
			h = withNets(h, maxRatedNet-1+rng.Intn(4), rng.Intn(n-maxRatedNet)+maxRatedNet-2)
		}
		var fixed []int8
		if rng.Intn(2) == 0 {
			fixed = make([]int8, n)
			for v := range fixed {
				fixed[v] = int8(rng.Intn(3)) - 1
			}
		}
		opts := HeavyEdgeOptions{Fixed: fixed, MaxPairWeight: int64(rng.Intn(9))}
		s := rng.Int63()
		got := HeavyEdge(h, rand.New(rand.NewSource(s)), opts)
		want := heavyEdgeReference(h, rand.New(rand.NewSource(s)), opts)
		if len(got) != len(want) {
			return false
		}
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// withNets returns h plus one net over vertices 0..a−1 and one over
// the last b vertices.
func withNets(h *hypergraph.Hypergraph, a, b int) *hypergraph.Hypergraph {
	n := h.NumVertices()
	bl := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		bl.SetVertexWeight(v, h.VertexWeight(v))
	}
	for e := 0; e < h.NumEdges(); e++ {
		bl.AddEdge(h.EdgePins(e)...)
	}
	var first, last []int
	for v := 0; v < a; v++ {
		first = append(first, v)
	}
	for v := n - b; v < n; v++ {
		last = append(last, v)
	}
	bl.AddEdge(first...)
	bl.AddEdge(last...)
	return bl.MustBuild()
}

func TestHeavyEdgeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHG(rng, 80, 180)
	mate := HeavyEdge(h, rng, HeavyEdgeOptions{})
	for v, u := range mate {
		if u == Unmatched {
			continue
		}
		if u < 0 || u >= len(mate) || mate[u] != v || u == v {
			t.Fatalf("asymmetric match: mate[%d]=%d, mate[%d]=%d", v, u, u, mate[u])
		}
	}
}

func TestHeavyEdgeRespectsFixedSides(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 50
	h := randomHG(rng, n, 150)
	fixed := make([]int8, n)
	for v := range fixed {
		fixed[v] = int8(v % 2) // alternate sides, nobody free
	}
	mate := HeavyEdge(h, rng, HeavyEdgeOptions{Fixed: fixed})
	for v, u := range mate {
		if u != Unmatched && fixed[v] != fixed[u] {
			t.Fatalf("matched opposite fixed sides: %d(side %d) with %d(side %d)", v, fixed[v], u, fixed[u])
		}
	}
}

func TestHeavyEdgeRespectsMaxPairWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomHG(rng, 60, 160)
	const maxPair = 4
	mate := HeavyEdge(h, rng, HeavyEdgeOptions{MaxPairWeight: maxPair})
	for v, u := range mate {
		if u != Unmatched && h.VertexWeight(v)+h.VertexWeight(u) > maxPair {
			t.Fatalf("pair %d+%d weighs %d > cap %d", v, u, h.VertexWeight(v)+h.VertexWeight(u), maxPair)
		}
	}
}

func TestHeavyEdgeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := randomHG(rng, 70, 170)
	a := HeavyEdge(h, rand.New(rand.NewSource(42)), HeavyEdgeOptions{})
	b := HeavyEdge(h, rand.New(rand.NewSource(42)), HeavyEdgeOptions{})
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at vertex %d: %d vs %d", v, a[v], b[v])
		}
	}
}

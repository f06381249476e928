package matching_test

import (
	"math/rand"
	"testing"

	"fasthgp/internal/coarsen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/matching"
)

// TestGiantNetRatingIsLinear: on one net over every module plus a ring
// of 2-pin nets, every coarsening level rates at most 64 pins per pin.
// Rating the giant net would read about n²/2 pins at the first level
// alone (2·10⁶ here, against a bound of 64·6,000).
func TestGiantNetRatingIsLinear(t *testing.T) {
	const n, perPin = 2000, 64
	b := hypergraph.NewBuilder(n)
	all := make([]int, n)
	for v := range all {
		all[v] = v
		b.AddEdge(v, (v+1)%n)
	}
	b.AddEdge(all...)
	h := b.MustBuild()
	rng := rand.New(rand.NewSource(1))
	for level := 0; h.NumVertices() > 2; level++ {
		mate, rated := matching.HeavyEdgeRated(h, rng, matching.HeavyEdgeOptions{})
		if rated > perPin*h.NumPins() {
			t.Fatalf("level %d: rated %d pins, more than %d·%d", level, rated, perPin, h.NumPins())
		}
		// Contract matched pairs as coarsen.Contract does.
		m := make([]int, h.NumVertices())
		k := 0
		for v := range m {
			if u := mate[v]; u != matching.Unmatched && u < v {
				m[v] = m[u]
			} else {
				m[v] = k
				k++
			}
		}
		if k == h.NumVertices() {
			t.Fatalf("level %d: nothing matched on %d vertices", level, k)
		}
		h = coarsen.ContractMap(h, m, k)
	}
}

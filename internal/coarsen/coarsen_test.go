package coarsen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
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

func TestStepShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := randomHG(rng, 100, 220)
	res := Contract(h, rng, Options{})
	if res.Coarse.NumVertices() >= h.NumVertices() {
		t.Errorf("no shrink: %d → %d", h.NumVertices(), res.Coarse.NumVertices())
	}
	if res.Coarse.NumVertices() < h.NumVertices()/2 {
		t.Errorf("matching contracted more than pairs: %d → %d", h.NumVertices(), res.Coarse.NumVertices())
	}
}

func TestStepWeightConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randomHG(rng, 60, 140)
	res := Contract(h, rng, Options{})
	if res.Coarse.TotalVertexWeight() != h.TotalVertexWeight() {
		t.Errorf("vertex weight changed: %d → %d", h.TotalVertexWeight(), res.Coarse.TotalVertexWeight())
	}
	var fineEdgeW, coarseEdgeW int64
	for e := 0; e < h.NumEdges(); e++ {
		// Nets whose pins all merged into one coarse vertex disappear;
		// count only surviving weight.
		first := res.Map[h.EdgePins(e)[0]]
		survives := false
		for _, v := range h.EdgePins(e) {
			if res.Map[v] != first {
				survives = true
				break
			}
		}
		if survives {
			fineEdgeW += h.EdgeWeight(e)
		}
	}
	for e := 0; e < res.Coarse.NumEdges(); e++ {
		coarseEdgeW += res.Coarse.EdgeWeight(e)
	}
	if fineEdgeW != coarseEdgeW {
		t.Errorf("surviving edge weight changed: %d → %d", fineEdgeW, coarseEdgeW)
	}
}

func TestStepMapValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHG(rng, 50, 100)
	res := Contract(h, rng, Options{})
	seen := make([]int, res.Coarse.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		cv := res.Map[v]
		if cv < 0 || cv >= res.Coarse.NumVertices() {
			t.Fatalf("Map[%d] = %d out of range", v, cv)
		}
		seen[cv]++
	}
	for cv, c := range seen {
		if c < 1 || c > 2 {
			t.Errorf("coarse vertex %d has %d fine vertices (matching allows 1-2)", cv, c)
		}
	}
}

func TestEdgelessIdentity(t *testing.T) {
	h := hypergraph.NewBuilder(5).MustBuild()
	rng := rand.New(rand.NewSource(4))
	res := Contract(h, rng, Options{})
	if res.Coarse.NumVertices() != 5 {
		t.Errorf("edgeless hypergraph contracted: %d vertices", res.Coarse.NumVertices())
	}
	if len(BuildHierarchy(h, rng, Options{MinVertices: 2})) != 0 {
		t.Error("BuildHierarchy made progress on edgeless hypergraph")
	}
}

func TestHierarchyTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomHG(rng, 300, 700)
	levels := BuildHierarchy(h, rng, Options{MinVertices: 30})
	if len(levels) == 0 {
		t.Fatal("no levels")
	}
	last := levels[len(levels)-1].Coarse
	if last.NumVertices() > 60 {
		t.Errorf("coarsest still has %d vertices", last.NumVertices())
	}
	// Strictly decreasing chain.
	prev := h.NumVertices()
	for i, l := range levels {
		if l.Coarse.NumVertices() >= prev {
			t.Errorf("level %d did not shrink: %d → %d", i, prev, l.Coarse.NumVertices())
		}
		prev = l.Coarse.NumVertices()
	}
}

// TestPropertyWeightedCutPreserved: the weighted cut of a coarse
// partition equals the weighted cut of its projection.
func TestPropertyWeightedCutPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		h := randomHG(rng, n, 2*n)
		res := Contract(h, rng, Options{})
		if res.Coarse.NumVertices() < 2 {
			return true
		}
		cp := kl.RandomBisection(res.Coarse.NumVertices(), rng)
		fp := Project(n, res.Map, cp)
		return partition.WeightedCutSize(res.Coarse, cp) == partition.WeightedCutSize(h, fp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestProjectSides(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := randomHG(rng, 20, 40)
	res := Contract(h, rng, Options{})
	cp := kl.RandomBisection(res.Coarse.NumVertices(), rng)
	fp := Project(20, res.Map, cp)
	for v := 0; v < 20; v++ {
		if fp.Side(v) != cp.Side(res.Map[v]) {
			t.Fatalf("vertex %d side mismatch", v)
		}
	}
}

package core

import (
	"math/rand"
	"slices"
	"testing"

	"fasthgp/internal/engine"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/partition"
)

// boundaryGraphReference builds G′ the obvious way: flag every G-vertex
// with a neighbour across the cut, number the flagged ones in G order,
// and add every cross edge through a graph.Builder.
func boundaryGraphReference(ig *intersect.Result, side []partition.Side) (nets []int, sideOf []partition.Side, g *graph.Graph) {
	n := ig.G.NumVertices()
	index := make([]int, n)
	for i := 0; i < n; i++ {
		index[i] = -1
		for _, j := range ig.G.Neighbors(i) {
			if side[j] != side[i] {
				index[i] = len(nets)
				nets = append(nets, ig.NetOf[i])
				sideOf = append(sideOf, side[i])
				break
			}
		}
	}
	b := graph.NewBuilder(len(nets))
	for i := 0; i < n; i++ {
		for _, j := range ig.G.Neighbors(i) {
			if j > i && side[j] != side[i] {
				b.AddEdge(index[i], index[j])
			}
		}
	}
	return nets, sideOf, b.MustBuild()
}

// TestBoundaryGraphMatchesReference checks the one-pass boundary
// extraction against the reference on random instances, under both
// frontier policies, with one scratch arena reused across every cut.
func TestBoundaryGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(60)
		b := hypergraph.NewBuilder(n)
		for e := n/2 + rng.Intn(2*n); e > 0; e-- {
			pins := make([]int, 2+rng.Intn(4))
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		ig := intersect.Build(h, intersect.Options{})
		nG := ig.G.NumVertices()
		if nG == 0 {
			continue
		}
		u, v := rng.Intn(nG), rng.Intn(nG)
		pb := partialFromCut(h, ig, u, v, trial%2 == 1, scratch)
		nets, sideOf, want := boundaryGraphReference(ig, pb.NetSide)
		bg := pb.Boundary
		if err := bg.G.ValidateCSR(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(bg.Nets, nets) || !slices.Equal(bg.SideOf, sideOf) {
			t.Fatalf("trial %d: boundary nets %v sides %v, reference %v %v", trial, bg.Nets, bg.SideOf, nets, sideOf)
		}
		if bg.G.NumVertices() != want.NumVertices() {
			t.Fatalf("trial %d: G′ has %d vertices, reference %d", trial, bg.G.NumVertices(), want.NumVertices())
		}
		for k := 0; k < want.NumVertices(); k++ {
			if !slices.Equal(bg.G.Neighbors(k), want.Neighbors(k)) {
				t.Fatalf("trial %d: G′ row %d = %v, reference %v", trial, k, bg.G.Neighbors(k), want.Neighbors(k))
			}
		}
		flagged := 0
		for _, f := range pb.IsBoundary {
			if f {
				flagged++
			}
		}
		if flagged != len(nets) {
			t.Fatalf("trial %d: %d nets flagged as boundary, reference %d", trial, flagged, len(nets))
		}
		scratch.Release()
	}
}

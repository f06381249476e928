package core

// Degenerate inputs must stay linear: the degenerate-side repair and
// the leftover packing both used to be quadratic in the module count.
// The original implementations are kept here as references, and two
// 10⁵-module instances drive each path end to end.

import (
	"math/rand"
	"slices"
	"testing"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// repairNonemptyReference is the original repair: try every candidate
// move and recompute the whole cut, keeping the first minimum.
// O(n·pins).
func repairNonemptyReference(h *hypergraph.Hypergraph, p *partition.Bipartition) {
	l, r, _ := p.Counts()
	if l > 0 && r > 0 {
		return
	}
	var from, to partition.Side
	if l == 0 {
		from, to = partition.Right, partition.Left
	} else {
		from, to = partition.Left, partition.Right
	}
	bestM, bestCut := -1, 0
	for m := 0; m < h.NumVertices(); m++ {
		if p.Side(m) != from {
			continue
		}
		p.Assign(m, to)
		cut := partition.CutSize(h, p)
		p.Assign(m, from)
		if bestM == -1 || cut < bestCut {
			bestM, bestCut = m, cut
		}
	}
	if bestM >= 0 {
		p.Assign(bestM, to)
	}
}

// sortByWeightDescReference is the original insertion sort of the
// leftover list. O(n²).
func sortByWeightDescReference(h *hypergraph.Hypergraph, ms []int) {
	less := func(a, b int) bool {
		wa, wb := h.VertexWeight(a), h.VertexWeight(b)
		if wa != wb {
			return wa > wb
		}
		return a < b
	}
	for i := 1; i < len(ms); i++ {
		x := ms[i]
		j := i - 1
		for j >= 0 && less(x, ms[j]) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = x
	}
}

// randomWeighted builds n modules with weights in [1, maxW] and up to
// 2n nets of 1–5 pins.
func randomWeighted(rng *rand.Rand, n int, maxW int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 1+rng.Int63n(maxW))
	}
	for e := rng.Intn(2*n) + 1; e > 0; e-- {
		pins := make([]int, 1+rng.Intn(5))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	return b.MustBuild()
}

func TestRepairNonemptyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(30)
		h := randomWeighted(rng, n, 3)
		// Everything on one side, with a few modules left unassigned
		// (and sometimes all of them) to cover open and partial nets.
		p := partition.New(n)
		side := partition.Side(rng.Intn(2))
		unassigned := rng.Float64() * 0.3
		if trial%50 == 0 {
			unassigned = 1
		}
		for m := 0; m < n; m++ {
			if rng.Float64() >= unassigned {
				p.Assign(m, side)
			}
		}
		want := p.Clone()
		repairNonemptyReference(h, want)
		got := p.Clone()
		repairNonempty(h, got)
		if !slices.Equal(got.Sides(), want.Sides()) {
			t.Fatalf("trial %d (n=%d): repair gave %v, reference %v", trial, n, got.Sides(), want.Sides())
		}
	}
}

func TestSortByWeightDescMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		h := randomWeighted(rng, n, 1+rng.Int63n(8))
		ms := rng.Perm(n)[:rng.Intn(n+1)]
		want := slices.Clone(ms)
		sortByWeightDescReference(h, want)
		sortByWeightDesc(h, ms)
		if !slices.Equal(ms, want) {
			t.Fatalf("trial %d: sorted %v, reference %v", trial, ms, want)
		}
	}
}

// TestSpanningNetOverHundredThousandModules reaches the degenerate-side
// repair twice (the completion and the majority fallback both put every
// module on one side). Every candidate move cuts the one net, so the
// first module moves.
func TestSpanningNetOverHundredThousandModules(t *testing.T) {
	const n = 100_000
	pins := make([]int, n)
	for v := range pins {
		pins[v] = v
	}
	b := hypergraph.NewBuilder(n)
	b.AddEdge(pins...)
	h := b.MustBuild()
	res, err := Bipartition(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Repaired {
		t.Error("the spanning net did not reach the degenerate-side repair")
	}
	if res.CutSize != 1 {
		t.Errorf("CutSize = %d, want 1", res.CutSize)
	}
	if l, r, u := res.Partition.Counts(); l != n-1 || r != 1 || u != 0 || res.Partition.Side(0) != partition.Right {
		t.Errorf("sides %d/%d (%d unassigned), module 0 on %v; want module 0 alone on Right", l, r, u, res.Partition.Side(0))
	}
}

// TestHundredThousandLeftovers leaves all but a few modules isolated,
// so nearly every module goes through the leftover packing. Packing
// heaviest first onto the lighter side ends within one module weight
// of balance.
func TestHundredThousandLeftovers(t *testing.T) {
	const n, maxW = 100_000, 1000
	rng := rand.New(rand.NewSource(23))
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 1+rng.Int63n(maxW))
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	h := b.MustBuild()
	res, err := Bipartition(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatal(err)
	}
	if imb := partition.Imbalance(h, res.Partition); imb > maxW {
		t.Errorf("imbalance %d after packing, want at most one module weight (%d)", imb, maxW)
	}
}

package coarsen

// contractMapReference is ContractMap as it was before duplicate nets
// were found through one open-addressing index over a flat pin list:
// a map from pin-set hash to candidate edge ids and a private copy of
// every kept net. It is the oracle ContractMap must match exactly —
// vertex weights, net order, pins and merged weights.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fasthgp/internal/hypergraph"
)

func contractMapReference(h *hypergraph.Hypergraph, m []int, k int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(k)
	weights := make([]int64, k)
	for v := 0; v < h.NumVertices(); v++ {
		weights[m[v]] += h.VertexWeight(v)
	}
	for cv, w := range weights {
		b.SetVertexWeight(cv, w)
	}
	buckets := make(map[uint64][]int, h.NumEdges())
	var coarsePins [][]int
	var edgeWeights []int64
	scratch := make([]int, 0, 16)
	for e := 0; e < h.NumEdges(); e++ {
		scratch = scratch[:0]
		for _, v := range h.EdgePins(e) {
			scratch = append(scratch, m[v])
		}
		sort.Ints(scratch)
		out := scratch[:0]
		prev := -1
		for _, p := range scratch {
			if p != prev {
				out = append(out, p)
				prev = p
			}
		}
		if len(out) < 2 {
			continue
		}
		hash := pinHash(out)
		merged := false
		for _, id := range buckets[hash] {
			if slices.Equal(coarsePins[id], out) {
				edgeWeights[id] += h.EdgeWeight(e)
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		id := b.AddEdge(out...)
		buckets[hash] = append(buckets[hash], id)
		coarsePins = append(coarsePins, append([]int(nil), out...))
		edgeWeights = append(edgeWeights, h.EdgeWeight(e))
	}
	for id, w := range edgeWeights {
		b.SetEdgeWeight(id, w)
	}
	return b.MustBuild()
}

// sameHypergraph reports the first difference between two hypergraphs'
// vertex weights, nets, pins and net weights, or "" when they agree.
func sameHypergraph(got, want *hypergraph.Hypergraph) string {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.NumPins() != want.NumPins() {
		return "sizes differ"
	}
	for v := 0; v < got.NumVertices(); v++ {
		if got.VertexWeight(v) != want.VertexWeight(v) {
			return "vertex weights differ"
		}
	}
	for e := 0; e < got.NumEdges(); e++ {
		if !slices.Equal(got.EdgePins(e), want.EdgePins(e)) {
			return "net pins differ"
		}
		if got.EdgeWeight(e) != want.EdgeWeight(e) {
			return "net weights differ"
		}
	}
	return ""
}

// mapFromBytes decodes a weighted hypergraph with many repeated nets and
// a vertex map onto k ≥ 1 coarse vertices from fuzz input; every byte
// string decodes to some instance.
func mapFromBytes(data []byte) (*hypergraph.Hypergraph, []int, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%40
	k := 1 + next()%n
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int64(next()%4))
	}
	for e := next() % (4 * n); e >= 0; e-- {
		pins := make([]int, 1+next()%6)
		for i := range pins {
			pins[i] = next() % n
		}
		id := b.AddEdge(pins...)
		b.SetEdgeWeight(id, int64(next()%3))
	}
	m := make([]int, n)
	for v := range m {
		m[v] = next() % k
	}
	return b.MustBuild(), m, k
}

func TestContractMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		h, m, k := mapFromBytes(data)
		if diff := sameHypergraph(ContractMap(h, m, k), contractMapReference(h, m, k)); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
	// Matchings as the hierarchy draws them, on a power-law-sized input.
	h := randomHG(rng, 3000, 6000)
	for _, level := range BuildHierarchy(h, rng, Options{MinVertices: 16}) {
		if diff := sameHypergraph(level.Coarse, contractMapReference(h, level.Map, level.Coarse.NumVertices())); diff != "" {
			t.Fatalf("hierarchy level: %s", diff)
		}
		h = level.Coarse
	}
}

func FuzzContractMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 20, 2, 0, 1, 2, 2, 0, 1, 2, 2, 1, 0, 2})
	f.Add([]byte{39, 7, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 3, 9, 27, 81, 243, 5, 25, 125})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		h, m, k := mapFromBytes(data)
		if diff := sameHypergraph(ContractMap(h, m, k), contractMapReference(h, m, k)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestContractMapAllocations bounds ContractMap's allocations on a
// 6000-net input: a fixed handful (the index, the flat pin list and
// hypergraph.Builder's arrays), not a few per kept net.
func TestContractMapAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHG(rng, 4000, 6000)
	m := make([]int, h.NumVertices())
	for v := range m {
		m[v] = v / 2
	}
	k := (h.NumVertices() + 1) / 2
	allocs := testing.AllocsPerRun(3, func() { ContractMap(h, m, k) })
	if allocs > 40 {
		t.Fatalf("ContractMap made %.0f allocations for %d nets, want at most 40", allocs, h.NumEdges())
	}
	t.Logf("%.0f allocations, the map-based reference %.0f", allocs,
		testing.AllocsPerRun(3, func() { contractMapReference(h, m, k) }))
}

package intersect

import (
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
)

// BuildReference is the original per-module clique builder: for each
// module it emits every pair of its incident included nets into a
// graph.Builder pair buffer (duplicates included), which then sorts and
// deduplicates per vertex. It allocates Σ d·(d−1)/2 pair entries before
// producing the CSR and is kept solely as the differential oracle for
// the stamp-based CSR builder; both must return bit-identical Results
// on every input.
func BuildReference(h *hypergraph.Hypergraph, opts Options) *Result {
	numEdges := h.NumEdges()
	res := &Result{GVertexOf: make([]int, numEdges)}
	include := make([]bool, numEdges)
	for e := 0; e < numEdges; e++ {
		if opts.Threshold > 0 && h.EdgeSize(e) >= opts.Threshold {
			res.GVertexOf[e] = -1
			res.Excluded = append(res.Excluded, e)
			continue
		}
		include[e] = true
		res.GVertexOf[e] = len(res.NetOf)
		res.NetOf = append(res.NetOf, e)
	}

	b := graph.NewBuilder(len(res.NetOf))
	for v := 0; v < h.NumVertices(); v++ {
		inc := h.VertexEdges(v)
		for i := 0; i < len(inc); i++ {
			ei := inc[i]
			if !include[ei] {
				continue
			}
			gi := res.GVertexOf[ei]
			for j := i + 1; j < len(inc); j++ {
				ej := inc[j]
				if !include[ej] {
					continue
				}
				b.AddEdge(gi, res.GVertexOf[ej])
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		// All indices are internally generated; failure is a programming
		// error, not an input error.
		panic("intersect: invalid graph built: " + err.Error())
	}
	res.G = g
	return res
}

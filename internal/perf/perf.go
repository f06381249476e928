// Package perf is the continuous-performance harness for the
// dual-construction fast path: a pinned suite of generator families
// (Table 1/2-scale synthetic netlists) with deterministic work
// counters, consumed by the benchmarks and the BENCH_perf.json
// baseline test in this package.
//
// The counters are pure functions of the pinned instances — no timing,
// no allocation measurements — so the committed baseline only changes
// when the construction's workload actually changes. Wall-clock and
// allocs/op live in the benchmarks and the gitignored timing sidecar,
// mirroring the BENCH_verify.json / BENCH_verify.timing.json split.
package perf

import (
	"fmt"
	"math/rand"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
)

// Family is one pinned benchmark instance with the intersection-graph
// options it is measured under.
type Family struct {
	// Name identifies the family in benchmarks and BENCH_perf.json.
	Name string
	// Threshold is the net-size filter passed to intersect.Build.
	Threshold int
	// Dense marks the dense synthetic suite, the instance the pipeline
	// benchmark and the double-BFS allocation test run on.
	Dense bool
	// H is the pinned instance.
	H *hypergraph.Hypergraph
}

// Families returns the pinned suite, fully deterministic: fixed
// generator seeds, fixed dimensions. Order is stable; names are unique.
func Families() []Family {
	mk := func(name string, h *hypergraph.Hypergraph, err error) *hypergraph.Hypergraph {
		if err != nil {
			panic(fmt.Sprintf("perf: building family %s: %v", name, err))
		}
		return h
	}
	random := func(name string, n int, cfg gen.RandomConfig, seed int64) *hypergraph.Hypergraph {
		rng := rand.New(rand.NewSource(seed))
		h, err := gen.Random(n, cfg, rng)
		return mk(name, h, err)
	}
	table2 := func(name gen.Table2Name, seed int64) *hypergraph.Hypergraph {
		h, err := gen.Table2Instance(name, seed)
		return mk(string(name), h, err)
	}
	return []Family{
		// Sparse Table-1 regime: bounded pins, degree ~ pins/n.
		{Name: "uniform-1k", H: random("uniform-1k", 1000,
			gen.RandomConfig{NumEdges: 1400, MinEdgeSize: 2, MaxEdgeSize: 4}, 1)},
		// Dense suite: 500 modules × 4000 nets, wide nets, unbounded
		// degree — a clique-pair buffer here would be orders of
		// magnitude larger than the graph it produces.
		{Name: "dense-500", Dense: true, H: random("dense-500", 500,
			gen.RandomConfig{NumEdges: 4000, MinEdgeSize: 2, MaxEdgeSize: 10}, 2)},
		// Table-2 technology profiles at paper scale.
		{Name: "pcb-242", H: table2(gen.Bd3, 3)},
		{Name: "stdcell-561-t10", Threshold: 10, H: table2(gen.IC1, 4)},
		// Planted difficult instance (Diff1: c=4 on 500×700).
		{Name: "planted-500", H: table2(gen.Diff1, 5)},
		// Huge suite: 2000 modules × 10000 nets — the widest CSR dual
		// in the suite.
		{Name: "huge-2k", H: random("huge-2k", 2000,
			gen.RandomConfig{NumEdges: 10000, MinEdgeSize: 2, MaxEdgeSize: 8}, 6)},
	}
}

// Counters are the deterministic work counters of one family's
// intersection-graph construction — integers only, identical on every
// machine and run.
type Counters struct {
	// Modules, Nets and Pins describe the input hypergraph.
	Modules int `json:"modules"`
	Nets    int `json:"nets"`
	Pins    int `json:"pins"`
	// GVertices and GEdges describe the built intersection graph.
	GVertices int `json:"g_vertices"`
	GEdges    int `json:"g_edges"`
	// CliquePairs is Σ_m k_m·(k_m−1)/2 over modules m with k_m included
	// incident nets: the number of pairs a clique-pair builder would
	// buffer before sorting. The stamp builder never materializes them.
	CliquePairs int64 `json:"clique_pairs"`
	// ArcsEmitted = 2·GEdges is what the stamp builder writes instead.
	ArcsEmitted int `json:"arcs_emitted"`
	// DualForm is the storage form the serial build chose for G:
	// "bitset" rows or "csr" lists.
	DualForm string `json:"dual_form"`
}

// CountersFor computes f's counters by running the production builder.
func CountersFor(f Family) Counters {
	h := f.H
	res := intersect.Build(h, intersect.Options{Threshold: f.Threshold})
	c := Counters{
		Modules:     h.NumVertices(),
		Nets:        h.NumEdges(),
		Pins:        h.NumPins(),
		GVertices:   res.G.NumVertices(),
		GEdges:      res.G.NumEdges(),
		ArcsEmitted: 2 * res.G.NumEdges(),
		DualForm:    "csr",
	}
	if res.G.Bitset() {
		c.DualForm = "bitset"
	}
	for m := 0; m < h.NumVertices(); m++ {
		k := int64(0)
		for _, e := range h.VertexEdges(m) {
			if res.GVertexOf[e] >= 0 {
				k++
			}
		}
		c.CliquePairs += k * (k - 1) / 2
	}
	return c
}

// Package intersect builds the intersection graph G dual to a
// hypergraph H — the central construction of Kahng's fast hypergraph
// partitioner (DAC 1989, Section 2).
//
// G has one vertex per hyperedge (net) of H, and two vertices of G are
// adjacent exactly when the corresponding nets share at least one
// module. For each module of H its incident nets therefore form a
// clique in G; the builder merges these per-module cliques and
// deduplicates.
//
// Section 3 of the paper argues that nets larger than a small threshold
// (k ≥ 10 suffices) almost always cross the best partition anyway, so
// they can be excluded from G — which both speeds construction and, in
// practice, increases the diameter of G (sparser G ⇒ smaller boundary
// set). Options.Threshold implements that filtering; excluded nets are
// reported so callers can account for them when scoring the final cut.
//
// Build is the production constructor: a two-pass counting construction
// straight into CSR form. Pass one counts each G-vertex's deduplicated
// degree, pass two emits arcs directly into their final slots; both
// passes deduplicate with a per-net lastSeen stamp array instead of
// buffering the Σ d·(d−1)/2 per-module clique pairs, and emitting in
// ascending source order leaves every CSR row sorted without a single
// sort call. The only allocations are the output arrays themselves —
// working stamps come from a sync.Pool — and the Result is bit-
// identical to the original clique-pair builder's, which the
// differential suite keeps as its oracle.
//
// A dense G — the V-cycle's coarsest levels, where hub modules make
// about half of all net pairs adjacent — is held as bitset rows
// instead (see graph.UncheckedBitset and denseDual), built by ORing
// each module's net bitset into its nets' rows. It holds the same
// edges, and every graph query answers as on the CSR form.
package intersect

import (
	"sync"

	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
)

// Options configures intersection-graph construction.
type Options struct {
	// Threshold excludes nets with Threshold or more pins from the
	// graph. Zero (or negative) means no filtering. The paper's
	// analysis supports thresholds as low as 10 with very small
	// expected cutsize error.
	Threshold int
	// Deprecated: Parallelism is ignored; every build is serial. It
	// remains only because the benchmark module still sets it.
	Parallelism int
}

// BuildStats reports how a construction executed. TotalArcs is a pure
// function of (hypergraph, Options), so the benchmark can report it as
// a work counter.
type BuildStats struct {
	// TotalArcs is the number of candidate arcs the CSR passes walk
	// per pass (duplicates and filtered candidates included).
	TotalArcs int
}

// Result is an intersection graph together with the bookkeeping needed
// to map its vertices back to nets of the source hypergraph.
type Result struct {
	// G is the intersection graph. Its vertex i corresponds to net
	// NetOf[i] of the source hypergraph.
	G *graph.Graph
	// NetOf maps G-vertex index → hypergraph edge index.
	NetOf []int
	// GVertexOf maps hypergraph edge index → G-vertex index, or -1 for
	// nets excluded by the threshold.
	GVertexOf []int
	// Excluded lists the hypergraph edges excluded by the threshold,
	// ascending.
	Excluded []int
}

// NumIncluded returns the number of nets represented in G.
func (r *Result) NumIncluded() int { return len(r.NetOf) }

// buildScratch holds the per-net stamp and cursor arrays of one CSR
// build and the module bitset of one bitset build. Pooled: construction
// runs once per partitioning call, but daemon traffic makes that a
// steady drumbeat, and the arrays are O(nets).
type buildScratch struct {
	lastSeen []int
	cursor   []int
	modBits  []uint64
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Build constructs the intersection graph of h under opts.
//
// Complexity (CSR form): both passes walk, for every included net, the
// incident nets of each of its modules — O(pins · maxdeg) total, within
// the paper's O(n²) budget — and the peak transient memory is two
// O(nets) integer arrays, not an O(Σ d²) buffer of clique pairs.
func Build(h *hypergraph.Hypergraph, opts Options) *Result {
	return BuildCounted(h, opts, nil)
}

// BuildCounted is Build that additionally reports execution counters
// when stats is non-nil.
//
// G is held as bitset rows instead of CSR when the rows are no larger
// than the clique-pair bound — see denseDual. Both forms hold the same
// edges and answer every graph query identically.
func BuildCounted(h *hypergraph.Hypergraph, opts Options, stats *BuildStats) *Result {
	res := newResult(h, opts)
	if stats != nil {
		total := 0
		for _, e := range res.NetOf {
			for _, m := range h.EdgePins(e) {
				total += len(h.VertexEdges(m))
			}
		}
		*stats = BuildStats{TotalArcs: total}
	}
	if denseDual(h, res) {
		buildBitset(h, res)
	} else {
		buildCSR(h, res)
	}
	return res
}

// newResult applies the net filter: GVertexOf, NetOf and Excluded, with
// G left for a builder to fill.
func newResult(h *hypergraph.Hypergraph, opts Options) *Result {
	numEdges := h.NumEdges()
	res := &Result{GVertexOf: make([]int, numEdges)}

	// One sizing pass so NetOf and Excluded are allocated exactly (nil
	// when empty).
	included := numEdges
	if opts.Threshold > 0 {
		included = 0
		for e := 0; e < numEdges; e++ {
			if h.EdgeSize(e) < opts.Threshold {
				included++
			}
		}
	}
	if included > 0 {
		res.NetOf = make([]int, 0, included)
	}
	if excluded := numEdges - included; excluded > 0 {
		res.Excluded = make([]int, 0, excluded)
	}
	for e := 0; e < numEdges; e++ {
		if opts.Threshold > 0 && h.EdgeSize(e) >= opts.Threshold {
			res.GVertexOf[e] = -1
			res.Excluded = append(res.Excluded, e)
			continue
		}
		res.GVertexOf[e] = len(res.NetOf)
		res.NetOf = append(res.NetOf, e)
	}
	return res
}

// denseDual reports whether G's bitset rows, n·⌈n/64⌉ words for n
// included nets, are no larger than the clique-pair bound Σ_m C(d_m, 2)
// over modules m with d_m included nets — the number of (duplicated)
// pairs the per-module cliques contribute, which bounds G's edges from
// above. It costs O(pins) and runs before anything is allocated.
// Netlists of many sparse nets (Table-2 IC1, IC2, Diff1–3: 2–5 pairs
// per pin) stay on CSR; small boards (Bd1–Bd3) and coarsened netlists
// whose hub modules make half of all net pairs adjacent (hundreds of
// pairs per pin) take the bitset rows.
func denseDual(h *hypergraph.Hypergraph, res *Result) bool {
	nG := len(res.NetOf)
	budget := nG * graph.RowWords(nG)
	pairs := 0
	for m := 0; m < h.NumVertices() && pairs < budget; m++ {
		d := 0
		for _, e := range h.VertexEdges(m) {
			if res.GVertexOf[e] >= 0 {
				d++
			}
		}
		pairs += d * (d - 1) / 2
	}
	return pairs >= budget
}

// buildCSR fills res.G in CSR form by the two counting passes.
func buildCSR(h *hypergraph.Hypergraph, res *Result) {
	nG := len(res.NetOf)
	sc := buildPool.Get().(*buildScratch)
	if cap(sc.lastSeen) < nG {
		sc.lastSeen = make([]int, nG)
		sc.cursor = make([]int, nG)
	}
	lastSeen := sc.lastSeen[:nG]
	clear(lastSeen) // stale stamps from a previous Build would alias

	// Pass 1 — counting. For source vertex src, every incident net of
	// every module of net NetOf[src] is a neighbor candidate; the stamp
	// src+1 marks candidates already counted for this src, so each
	// unordered pair contributes exactly one arc per direction.
	start := make([]int, nG+1)
	for src := 0; src < nG; src++ {
		stamp := src + 1
		for _, m := range h.EdgePins(res.NetOf[src]) {
			for _, e2 := range h.VertexEdges(m) {
				dst := res.GVertexOf[e2]
				if dst < 0 || dst == src || lastSeen[dst] == stamp {
					continue
				}
				lastSeen[dst] = stamp
				start[dst+1]++
			}
		}
	}
	for v := 0; v < nG; v++ {
		start[v+1] += start[v]
	}

	// Pass 2 — emission. Identical walk with negated stamps (so no
	// clear between passes); arc src→dst lands in row dst, and because
	// src ascends monotonically every row comes out sorted ascending —
	// the invariant graph.UncheckedCSR relies on.
	adj := make([]int, start[nG])
	cursor := sc.cursor[:nG]
	copy(cursor, start[:nG])
	for src := 0; src < nG; src++ {
		stamp := -(src + 1)
		for _, m := range h.EdgePins(res.NetOf[src]) {
			for _, e2 := range h.VertexEdges(m) {
				dst := res.GVertexOf[e2]
				if dst < 0 || dst == src || lastSeen[dst] == stamp {
					continue
				}
				lastSeen[dst] = stamp
				adj[cursor[dst]] = src
				cursor[dst]++
			}
		}
	}
	buildPool.Put(sc)

	res.G = graph.UncheckedCSR(start, adj)
}

// buildBitset fills res.G in bitset form: each module's included nets
// form a clique, so the module's net bitset is ORed into the row of
// each of its nets (over the words the module spans), and the self bits
// are cleared at the end. O(Σ_m d_m · span_m) word operations, at most
// pins · ⌈n/64⌉, in place of the two Σ d² stamp passes.
func buildBitset(h *hypergraph.Hypergraph, res *Result) {
	nG := len(res.NetOf)
	w := graph.RowWords(nG)
	rows := make([]uint64, nG*w)
	sc := buildPool.Get().(*buildScratch)
	if cap(sc.modBits) < w {
		sc.modBits = make([]uint64, w)
	}
	mod := sc.modBits[:w]
	clear(mod)
	for m := 0; m < h.NumVertices(); m++ {
		lo, hi := w, -1
		for _, e := range h.VertexEdges(m) {
			if i := res.GVertexOf[e]; i >= 0 {
				mod[i>>6] |= 1 << (i & 63)
				lo, hi = min(lo, i>>6), max(hi, i>>6)
			}
		}
		if hi < 0 {
			continue // in no included net
		}
		span := mod[lo : hi+1]
		for _, e := range h.VertexEdges(m) {
			if i := res.GVertexOf[e]; i >= 0 {
				row := rows[i*w+lo : i*w+hi+1]
				for k, x := range span {
					row[k] |= x
				}
			}
		}
		clear(span)
	}
	buildPool.Put(sc)
	for i := 0; i < nG; i++ {
		rows[i*w+i>>6] &^= 1 << (i & 63)
	}
	res.G = graph.UncheckedBitset(nG, rows)
}

// SharedModule returns a module shared by nets e1 and e2 of h, or -1
// when they are disjoint. Used by tests and diagnostics to certify
// adjacency in G.
func SharedModule(h *hypergraph.Hypergraph, e1, e2 int) int {
	p1, p2 := h.EdgePins(e1), h.EdgePins(e2)
	i, j := 0, 0
	for i < len(p1) && j < len(p2) {
		switch {
		case p1[i] == p2[j]:
			return p1[i]
		case p1[i] < p2[j]:
			i++
		default:
			j++
		}
	}
	return -1
}

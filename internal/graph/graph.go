// Package graph provides the simple undirected graph machinery that the
// intersection-graph method of Kahng (DAC 1989) runs on: breadth-first
// search, pseudo-diameter estimation by random longest BFS paths,
// double-source BFS cuts, connected components, exact diameter (for
// verification), and bipartiteness checking.
//
// Graphs here are unweighted and simple (no self-loops, no parallel
// edges); build one with a Builder, which deduplicates.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Graph is an immutable simple undirected graph with vertices
// 0..N-1, held in one of two storage forms: CSR adjacency lists (every
// constructor but UncheckedBitset), or bitset rows for dense graphs
// (see bitset.go). Every method answers identically in both forms.
type Graph struct {
	n int
	// CSR form: row v is adj[start[v]:start[v+1]].
	start []int
	adj   []int
	// Bitset form (bitset set): row v is rows[v*words:(v+1)*words].
	bitset bool
	rows   []uint64
	words  int
	edges  int // computed once at construction
	maxDeg int // computed once at construction; see MaxDegree
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Neighbors returns the neighbors of v in ascending order. In the CSR
// form the slice aliases internal storage and must not be modified; in
// the bitset form the row is decoded into a fresh slice.
func (g *Graph) Neighbors(v int) []int {
	if g.bitset {
		return appendBits(nil, g.Row(v))
	}
	return g.adj[g.start[v]:g.start[v+1]]
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	if g.bitset {
		return popCount(g.Row(v))
	}
	return g.start[v+1] - g.start[v]
}

// MaxDegree returns the maximum degree, or 0 for an empty graph. The
// value is computed once at construction (the graph is immutable), so
// callers in hot loops — bucket-queue sizing in particular — pay O(1).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// computeMaxDeg scans the start offsets and sets the vertex and edge
// counts; called by every CSR constructor.
func (g *Graph) computeMaxDeg() {
	g.n = len(g.start) - 1
	g.edges = len(g.adj) / 2
	m := 0
	for v := 0; v < g.n; v++ {
		if d := g.start[v+1] - g.start[v]; d > m {
			m = d
		}
	}
	g.maxDeg = m
}

// HasEdge reports whether {u,v} is an edge, by binary search (CSR) or
// a bit test (bitset rows).
func (g *Graph) HasEdge(u, v int) bool {
	if g.bitset {
		row := g.Row(u)
		return v >= 0 && v < g.n && row[v>>6]&(1<<(v&63)) != 0
	}
	nb := g.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// String returns a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{vertices: %d, edges: %d}", g.NumVertices(), g.NumEdges())
}

// Builder assembles a Graph, deduplicating parallel edges and dropping
// self-loops.
type Builder struct {
	n     int
	pairs [][2]int
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge {u,v}. Self-loops are ignored.
// Out-of-range endpoints are reported by Build.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	b.pairs = append(b.pairs, [2]int{u, v})
}

// Build validates and finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	for _, p := range b.pairs {
		for _, x := range p {
			if x < 0 || x >= b.n {
				return nil, fmt.Errorf("graph: build: endpoint %d out of range [0,%d)", x, b.n)
			}
		}
	}
	// Count directed arcs with duplicates, then dedupe per vertex.
	deg := make([]int, b.n+1)
	for _, p := range b.pairs {
		deg[p[0]+1]++
		deg[p[1]+1]++
	}
	start := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		start[v+1] = start[v] + deg[v+1]
	}
	raw := make([]int, start[b.n])
	cursor := make([]int, b.n)
	copy(cursor, start[:b.n])
	for _, p := range b.pairs {
		raw[cursor[p[0]]] = p[1]
		cursor[p[0]]++
		raw[cursor[p[1]]] = p[0]
		cursor[p[1]]++
	}
	g := &Graph{start: make([]int, b.n+1)}
	adj := make([]int, 0, len(raw))
	for v := 0; v < b.n; v++ {
		g.start[v] = len(adj)
		nb := raw[start[v]:start[v+1]]
		sort.Ints(nb)
		prev := -1
		for _, u := range nb {
			if u != prev {
				adj = append(adj, u)
				prev = u
			}
		}
	}
	g.start[b.n] = len(adj)
	g.adj = adj
	g.computeMaxDeg()
	return g, nil
}

// FromCSR adopts caller-built CSR arrays as a Graph after validating
// every structural invariant with ValidateCSR. start must have length
// n+1 with start[0] == 0 and start[n] == len(adj); row v is
// adj[start[v]:start[v+1]] and must be strictly ascending (simple, no
// self-loop) and symmetric. The slices are adopted, not copied.
func FromCSR(start, adj []int) (*Graph, error) {
	g := &Graph{start: start, adj: adj}
	if err := g.ValidateCSR(); err != nil {
		return nil, err
	}
	g.computeMaxDeg()
	return g, nil
}

// UncheckedCSR adopts caller-built CSR arrays without validation — the
// zero-copy constructor for hot paths whose arrays are generated
// internally (the intersection-graph and boundary-graph builders).
// Callers must uphold the ValidateCSR invariants; the differential and
// fuzz suites check them after the fact.
func UncheckedCSR(start, adj []int) *Graph {
	g := &Graph{start: start, adj: adj}
	g.computeMaxDeg()
	return g
}

// ValidateCSR checks the representation invariants of the CSR arrays:
// monotone offsets, in-range endpoints, rows sorted strictly ascending
// (which implies simplicity: no parallel edges, no self-loops once
// symmetry holds), and symmetry (u lists v iff v lists u). For bitset
// rows it checks that no row sets its own bit or a bit at or above n,
// and symmetry. It is the oracle behind FromCSR and the construction
// fuzz targets.
func (g *Graph) ValidateCSR() error {
	if g.bitset {
		return g.validateBitset()
	}
	n := len(g.start) - 1
	if n < 0 {
		return fmt.Errorf("graph: csr: start array is empty")
	}
	if g.start[0] != 0 || g.start[n] != len(g.adj) {
		return fmt.Errorf("graph: csr: start bounds [%d,%d], want [0,%d]", g.start[0], g.start[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.start[v+1] < g.start[v] {
			return fmt.Errorf("graph: csr: start not monotone at vertex %d", v)
		}
		row := g.adj[g.start[v]:g.start[v+1]]
		for i, u := range row {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: csr: vertex %d lists out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: csr: vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: csr: row of vertex %d not strictly ascending at position %d", v, i)
			}
		}
	}
	// Symmetry: every arc must have its reverse. Rows are sorted, so
	// binary search keeps this O(E log maxdeg) with no allocation.
	for v := 0; v < n; v++ {
		for _, u := range g.adj[g.start[v]:g.start[v+1]] {
			rev := g.adj[g.start[u]:g.start[u+1]]
			i := sort.SearchInts(rev, v)
			if i >= len(rev) || rev[i] != v {
				return fmt.Errorf("graph: csr: arc %d->%d has no reverse", v, u)
			}
		}
	}
	return nil
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph on n vertices from an edge pair list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Unreached is the distance value reported by BFS for vertices not
// reachable from the source.
const Unreached = -1

// BFS runs breadth-first search from src and returns the distance of
// every vertex (Unreached for unreachable ones) and the BFS parent
// array (parent[src] = src; Unreached for unreachable vertices).
func (g *Graph) BFS(src int) (dist, parent []int) {
	n := g.NumVertices()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = Unreached
		parent[i] = Unreached
	}
	dist[src] = 0
	parent[src] = src
	if g.bitset {
		buf := bfsPool.Get().(*bfsBuffers)
		g.sweepBitset(src, dist, parent, buf)
		bfsPool.Put(buf)
		return dist, parent
	}
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(v) {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return dist, parent
}

// bfsBuffers holds the distance and queue arrays of one BFS sweep.
// They are pooled because Eccentricity is the hot path of every
// Algorithm I start (two sweeps per LongestBFSPath), and parallel
// multi-start runs would otherwise allocate two O(n) arrays per sweep.
type bfsBuffers struct {
	dist  []int
	queue []int
	seen  []uint64 // bitset rows: the claimed-vertex set
}

var bfsPool = sync.Pool{New: func() any { return new(bfsBuffers) }}

// Eccentricity returns the maximum finite BFS distance from src and a
// vertex attaining it (the lowest-numbered such vertex; src itself when
// nothing else is reachable). Unreachable vertices are ignored.
func (g *Graph) Eccentricity(src int) (far int, dist int) {
	n := g.NumVertices()
	buf := bfsPool.Get().(*bfsBuffers)
	defer bfsPool.Put(buf)
	if cap(buf.dist) < n {
		buf.dist = make([]int, n)
		buf.queue = make([]int, 0, n)
	}
	d := buf.dist[:n]
	for i := range d {
		d[i] = Unreached
	}
	d[src] = 0
	if g.bitset {
		g.sweepBitset(src, d, nil, buf)
	} else {
		queue := append(buf.queue[:0], src)
		// Once the queue holds all n vertices every distance is final, so
		// the sweep stops there instead of rescanning the remaining rows.
		for head := 0; head < len(queue) && len(queue) < n; head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if d[u] == Unreached {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		buf.queue = queue
	}
	far, dist = src, 0
	for v, dv := range d {
		if dv > dist {
			far, dist = v, dv
		}
	}
	return far, dist
}

// LongestBFSPath starts at a random vertex drawn from rng and returns
// the endpoints (u, v) of a longest BFS path: v is a furthest vertex
// from the random start u. Per the paper, for connected random graphs
// of bounded degree the depth of such a BFS equals diam(G) − O(1) with
// probability near 1, so (u, v) serves as a pseudo-diameter pair.
//
// A second BFS sweep from v is performed to lengthen the path
// (the standard double-sweep refinement); the returned pair is
// (v, w) where w is furthest from v.
func (g *Graph) LongestBFSPath(rng *rand.Rand) (u, v int, depth int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0, 0
	}
	start := rng.Intn(n)
	a, _ := g.Eccentricity(start)
	b, d := g.Eccentricity(a)
	return a, b, d
}

// Diameter computes the exact diameter of g restricted to its largest
// connected component, by running BFS from every vertex. O(n·m); meant
// for verification and experiments, not production paths.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.NumVertices(); v++ {
		_, ecc := g.Eccentricity(v)
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// Components returns a component labeling comp (values 0..k-1) and the
// component count k.
func (g *Graph) Components() (comp []int, k int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = Unreached
	}
	if g.bitset {
		return comp, g.componentsBitset(comp)
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if comp[v] != Unreached {
			continue
		}
		comp[v] = k
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, u := range g.Neighbors(x) {
				if comp[u] == Unreached {
					comp[u] = k
					queue = append(queue, u)
				}
			}
		}
		k++
	}
	return comp, k
}

// IsConnected reports whether g has exactly one connected component.
// The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	_, k := g.Components()
	return k <= 1
}

// IsBipartite checks 2-colorability; when bipartite it returns the
// color of each vertex (0/1) and true.
func (g *Graph) IsBipartite() (color []int, ok bool) {
	n := g.NumVertices()
	color = make([]int, n)
	for i := range color {
		color[i] = Unreached
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if color[v] != Unreached {
			continue
		}
		color[v] = 0
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, u := range g.Neighbors(x) {
				if color[u] == Unreached {
					color[u] = 1 - color[x]
					queue = append(queue, u)
				} else if color[u] == color[x] {
					return nil, false
				}
			}
		}
	}
	return color, true
}

// DoubleBFSSides labels every vertex reachable from u or v with the
// side (0 for u's side, 1 for v's side) that reaches it first when the
// two BFS frontiers expand in strict alternation, one full level at a
// time, starting with u. This realizes the paper's prescription:
// "a graph cut can be obtained by doing breadth-first search from two
// distant nodes of G until the two expanding sets meet to define a
// cutline" — and then continuing until every vertex is claimed.
// Vertices unreachable from both sources are labeled Unreached.
//
// When both frontiers would reach a vertex at the same level, the side
// expanding first in the alternation (u's side on even rounds) claims
// it; this tie policy is deterministic and is ablated in the benchmark
// suite.
func (g *Graph) DoubleBFSSides(u, v int) []int {
	n := g.NumVertices()
	return g.DoubleBFSSidesInto(u, v,
		make([]int, n), make([]int, 0, n), make([]int, 0, n), make([]int, 0, n))
}

// DoubleBFSSidesInto is DoubleBFSSides writing into caller-provided
// buffers, for allocation-free multi-start runs: side must have length
// NumVertices; f0, f1 and next are frontier buffers (their contents are
// ignored; capacity NumVertices avoids growth). The returned labeling
// aliases side.
func (g *Graph) DoubleBFSSidesInto(u, v int, side, f0, f1, next []int) []int {
	n := g.NumVertices()
	side = side[:n]
	for i := range side {
		side[i] = Unreached
	}
	if n == 0 {
		return side
	}
	if g.bitset {
		return g.doubleBFSBitset(u, v, side, f0, f1, next)
	}
	frontiers := [2][]int{append(f0[:0], u), append(f1[:0], v)}
	side[u] = 0
	labeled := 1
	if v != u {
		side[v] = 1
		labeled = 2
	}
	next = next[:0]
	for len(frontiers[0]) > 0 || len(frontiers[1]) > 0 {
		for s := 0; s < 2; s++ {
			next = next[:0]
			for _, x := range frontiers[s] {
				// A vertex may have been claimed by the other side after
				// being enqueued; its label is final, but it still expands
				// for its owning side only.
				if side[x] != s {
					continue
				}
				for _, w := range g.Neighbors(x) {
					if side[w] == Unreached {
						side[w] = s
						labeled++
						next = append(next, w)
					}
				}
				if labeled == n {
					// Every label is final; further rows only rescan.
					return side
				}
			}
			frontiers[s] = append(frontiers[s][:0], next...)
		}
	}
	return side
}

// DoubleBFSSidesBalanced is the alternative tie policy to
// DoubleBFSSides, ablated in the benchmark suite: instead of strict
// alternation, at every round the side whose claimed vertex set is
// currently smaller expands one level (ties go to side 0). This tends
// to equalize the two sides of the G-cut on asymmetric graphs, at the
// cost of no longer matching the paper's plain prescription.
func (g *Graph) DoubleBFSSidesBalanced(u, v int) []int {
	n := g.NumVertices()
	return g.DoubleBFSSidesBalancedInto(u, v,
		make([]int, n), make([]int, 0, n), make([]int, 0, n), make([]int, 0, n))
}

// DoubleBFSSidesBalancedInto is DoubleBFSSidesBalanced writing into
// caller-provided buffers, mirroring DoubleBFSSidesInto.
func (g *Graph) DoubleBFSSidesBalancedInto(u, v int, side, f0, f1, next []int) []int {
	n := g.NumVertices()
	side = side[:n]
	for i := range side {
		side[i] = Unreached
	}
	if n == 0 {
		return side
	}
	if g.bitset {
		return g.doubleBFSBalancedBitset(u, v, side, f0, f1, next)
	}
	frontiers := [2][]int{append(f0[:0], u), append(f1[:0], v)}
	claimed := [2]int{1, 0}
	side[u] = 0
	if v != u {
		side[v] = 1
		claimed[1] = 1
	} else {
		frontiers[1] = frontiers[1][:0]
	}
	next = next[:0]
	for len(frontiers[0]) > 0 || len(frontiers[1]) > 0 {
		s := 0
		switch {
		case len(frontiers[0]) == 0:
			s = 1
		case len(frontiers[1]) == 0:
			s = 0
		case claimed[1] < claimed[0]:
			s = 1
		}
		next = next[:0]
		for _, x := range frontiers[s] {
			for _, w := range g.Neighbors(x) {
				if side[w] == Unreached {
					side[w] = s
					claimed[s]++
					next = append(next, w)
				}
			}
			if claimed[0]+claimed[1] == n {
				// Every label is final; further rows only rescan.
				return side
			}
		}
		frontiers[s] = append(frontiers[s][:0], next...)
	}
	return side
}

// Subgraph returns the induced subgraph on the vertices for which keep
// is true, together with a mapping from new indices to original ones.
func (g *Graph) Subgraph(keep func(v int) bool) (*Graph, []int) {
	n := g.NumVertices()
	newID := make([]int, n)
	origOf := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if keep(v) {
			newID[v] = len(origOf)
			origOf = append(origOf, v)
		} else {
			newID[v] = Unreached
		}
	}
	b := NewBuilder(len(origOf))
	for _, v := range origOf {
		for _, u := range g.Neighbors(v) {
			if u > v && newID[u] != Unreached {
				b.AddEdge(newID[v], newID[u])
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic("graph: Subgraph produced invalid graph: " + err.Error())
	}
	return sub, origOf
}

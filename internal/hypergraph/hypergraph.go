// Package hypergraph provides the core hypergraph data structure used
// throughout the library.
//
// In the VLSI/PCB CAD setting of Kahng's "Fast Hypergraph Partition"
// (DAC 1989), a circuit netlist defines a hypergraph H: vertices are
// modules (cells, chips) and hyperedges are signal nets, each net being
// the subset of modules it connects. The Hypergraph type stores pins in
// compressed sparse row (CSR) form in both directions — edge→pins and
// vertex→incident edges — so that all traversals used by the
// partitioning algorithms are cache-friendly and allocation-free.
//
// A Hypergraph is immutable after construction; build one with a
// Builder, or adopt a sorted CSR with FromCSR. Vertices and edges are identified by dense indices
// 0..NumVertices-1 and 0..NumEdges-1. Optional names may be attached
// for I/O and worked examples.
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Hypergraph is an immutable weighted hypergraph.
//
// The zero value is an empty hypergraph with no vertices and no edges;
// use a Builder to construct anything useful.
type Hypergraph struct {
	numVertices int

	// Edge → pins, CSR. pins[edgeStart[e]:edgeStart[e+1]] are the
	// vertices of edge e, sorted ascending.
	edgeStart []int
	pins      []int

	// Vertex → incident edges, CSR. incident[vertStart[v]:vertStart[v+1]]
	// are the edges containing vertex v, sorted ascending.
	vertStart []int
	incident  []int

	vertexWeight []int64
	edgeWeight   []int64

	totalVertexWeight int64

	// Optional names; nil when not set.
	vertexNames []string
	edgeNames   []string
}

// NumVertices returns the number of vertices (modules).
func (h *Hypergraph) NumVertices() int { return h.numVertices }

// NumEdges returns the number of hyperedges (nets).
func (h *Hypergraph) NumEdges() int {
	if h.edgeStart == nil {
		return 0
	}
	return len(h.edgeStart) - 1
}

// NumPins returns the total number of pins, i.e. the sum of edge sizes.
func (h *Hypergraph) NumPins() int { return len(h.pins) }

// EdgePins returns the vertices of edge e, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (h *Hypergraph) EdgePins(e int) []int {
	return h.pins[h.edgeStart[e]:h.edgeStart[e+1]]
}

// EdgeSize returns the number of pins of edge e.
func (h *Hypergraph) EdgeSize(e int) int {
	return h.edgeStart[e+1] - h.edgeStart[e]
}

// VertexEdges returns the edges incident to vertex v, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (h *Hypergraph) VertexEdges(v int) []int {
	return h.incident[h.vertStart[v]:h.vertStart[v+1]]
}

// VertexDegree returns the number of edges incident to vertex v.
func (h *Hypergraph) VertexDegree(v int) int {
	return h.vertStart[v+1] - h.vertStart[v]
}

// VertexWeight returns the weight of vertex v. Weights default to 1.
func (h *Hypergraph) VertexWeight(v int) int64 { return h.vertexWeight[v] }

// EdgeWeight returns the weight of edge e. Weights default to 1.
func (h *Hypergraph) EdgeWeight(e int) int64 { return h.edgeWeight[e] }

// TotalVertexWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalVertexWeight() int64 { return h.totalVertexWeight }

// VertexName returns the name of vertex v, or a synthesized "v<i>" name
// when no names were attached.
func (h *Hypergraph) VertexName(v int) string {
	if h.vertexNames != nil && h.vertexNames[v] != "" {
		return h.vertexNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// EdgeName returns the name of edge e, or a synthesized "e<i>" name
// when no names were attached.
func (h *Hypergraph) EdgeName(e int) string {
	if h.edgeNames != nil && h.edgeNames[e] != "" {
		return h.edgeNames[e]
	}
	return fmt.Sprintf("e%d", e)
}

// HasNames reports whether explicit vertex or edge names were attached.
func (h *Hypergraph) HasNames() bool {
	return h.vertexNames != nil || h.edgeNames != nil
}

// MaxEdgeSize returns the largest edge size, or 0 for an edgeless
// hypergraph.
func (h *Hypergraph) MaxEdgeSize() int {
	m := 0
	for e := 0; e < h.NumEdges(); e++ {
		if s := h.EdgeSize(e); s > m {
			m = s
		}
	}
	return m
}

// MaxVertexDegree returns the largest vertex degree, or 0 when there
// are no vertices.
func (h *Hypergraph) MaxVertexDegree() int {
	m := 0
	for v := 0; v < h.numVertices; v++ {
		if d := h.VertexDegree(v); d > m {
			m = d
		}
	}
	return m
}

// AverageEdgeSize returns the mean edge size, or 0 for an edgeless
// hypergraph.
func (h *Hypergraph) AverageEdgeSize() float64 {
	if h.NumEdges() == 0 {
		return 0
	}
	return float64(h.NumPins()) / float64(h.NumEdges())
}

// IsGraph reports whether every edge has exactly two pins, i.e. the
// hypergraph is an ordinary graph.
func (h *Hypergraph) IsGraph() bool {
	for e := 0; e < h.NumEdges(); e++ {
		if h.EdgeSize(e) != 2 {
			return false
		}
	}
	return true
}

// EdgeContains reports whether edge e contains vertex v, by binary
// search over the sorted pin list.
func (h *Hypergraph) EdgeContains(e, v int) bool {
	p := h.EdgePins(e)
	i := sort.SearchInts(p, v)
	return i < len(p) && p[i] == v
}

// Components returns the connected components of the hypergraph as a
// vertex labeling comp (comp[v] in 0..k-1) and the component count k.
// Two vertices are connected when some chain of edges joins them.
// Isolated vertices each form their own component.
func (h *Hypergraph) Components() (comp []int, k int) {
	parent := make([]int, h.numVertices)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		p := h.EdgePins(e)
		for i := 1; i < len(p); i++ {
			union(p[0], p[i])
		}
	}
	comp = make([]int, h.numVertices)
	label := make(map[int]int)
	for v := 0; v < h.numVertices; v++ {
		r := find(v)
		id, ok := label[r]
		if !ok {
			id = len(label)
			label[r] = id
		}
		comp[v] = id
	}
	return comp, len(label)
}

// FilterEdges returns a new hypergraph containing only the edges for
// which keep returns true, over the same vertex set, together with a
// mapping from new edge indices to original edge indices. Vertex and
// edge weights and names are preserved.
func (h *Hypergraph) FilterEdges(keep func(e int) bool) (*Hypergraph, []int) {
	b := NewBuilder(h.numVertices)
	origOf := make([]int, 0, h.NumEdges())
	for v := 0; v < h.numVertices; v++ {
		b.SetVertexWeight(v, h.vertexWeight[v])
		if h.vertexNames != nil {
			b.SetVertexName(v, h.vertexNames[v])
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		if !keep(e) {
			continue
		}
		ne := b.AddEdge(h.EdgePins(e)...)
		b.SetEdgeWeight(ne, h.edgeWeight[e])
		if h.edgeNames != nil {
			b.SetEdgeName(ne, h.edgeNames[e])
		}
		origOf = append(origOf, e)
	}
	sub, err := b.Build()
	if err != nil {
		// keep cannot introduce invalid structure; Build on a subset of a
		// valid hypergraph never fails.
		panic("hypergraph: FilterEdges produced invalid hypergraph: " + err.Error())
	}
	return sub, origOf
}

// Builder incrementally assembles a Hypergraph.
//
// Duplicate pins within an edge are merged. Edges may be added in any
// order; Build finalizes into CSR form. Every edge's pins live in one
// flat slice, so neither AddEdge nor Build allocates per edge, and the
// name slices are allocated only once a name is set.
type Builder struct {
	numVertices  int
	pins         []int // every edge's pins, in AddEdge order
	ends         []int // ends[e]: end of edge e's pins in pins
	vertexWeight []int64
	edgeWeight   []int64
	vertexNames  []string // nil until a vertex is named
	edgeNames    []string // nil until an edge is named, then one per edge
}

// NewBuilder returns a Builder for a hypergraph with n vertices.
func NewBuilder(n int) *Builder {
	b := &Builder{numVertices: n}
	b.vertexWeight = make([]int64, n)
	for i := range b.vertexWeight {
		b.vertexWeight[i] = 1
	}
	return b
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.numVertices }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.ends) }

// Grow reserves room for edges more edges with pins more pins in all,
// so that many AddEdge calls do not reallocate.
func (b *Builder) Grow(edges, pins int) {
	b.pins = slices.Grow(b.pins, pins)
	b.ends = slices.Grow(b.ends, edges)
	b.edgeWeight = slices.Grow(b.edgeWeight, edges)
}

// AddEdge adds a hyperedge with the given pins and returns its index.
// Pins are copied; duplicates are merged at Build time. Out-of-range
// pins are reported by Build.
func (b *Builder) AddEdge(pins ...int) int {
	b.pins = append(b.pins, pins...)
	b.ends = append(b.ends, len(b.pins))
	b.edgeWeight = append(b.edgeWeight, 1)
	if b.edgeNames != nil {
		b.edgeNames = append(b.edgeNames, "")
	}
	return len(b.ends) - 1
}

// SetVertexWeight sets the weight of vertex v (default 1).
func (b *Builder) SetVertexWeight(v int, w int64) { b.vertexWeight[v] = w }

// SetEdgeWeight sets the weight of edge e (default 1).
func (b *Builder) SetEdgeWeight(e int, w int64) { b.edgeWeight[e] = w }

// SetVertexName attaches a name to vertex v.
func (b *Builder) SetVertexName(v int, name string) {
	if b.vertexNames == nil {
		if name == "" {
			_ = b.vertexWeight[v] // range check
			return
		}
		b.vertexNames = make([]string, b.numVertices)
	}
	b.vertexNames[v] = name
}

// SetEdgeName attaches a name to edge e.
func (b *Builder) SetEdgeName(e int, name string) {
	if b.edgeNames == nil {
		if name == "" {
			_ = b.edgeWeight[e] // range check
			return
		}
		b.edgeNames = make([]string, len(b.ends), cap(b.ends))
	}
	b.edgeNames[e] = name
}

// errBuild is the sentinel prefix for all Build errors.
var errBuild = errors.New("hypergraph: build")

// Build validates and finalizes the hypergraph. It copies what it
// keeps, so the Builder stays usable: more edges may be added and Build
// called again.
//
// It returns an error if any pin index is out of range, any edge is
// empty after duplicate merging, or any weight is negative. Weights of
// zero are permitted (a zero-weight vertex is free to place).
func (b *Builder) Build() (*Hypergraph, error) {
	n := b.numVertices
	numEdges := len(b.ends)
	h := &Hypergraph{numVertices: n}

	// Copy the pins once, then sort and merge each edge in place: the
	// merged edge e lands at pins[edgeStart[e]:], never past its own
	// unmerged start, so it overwrites only pins already consumed.
	pins := make([]int, len(b.pins))
	copy(pins, b.pins)
	h.edgeStart = make([]int, numEdges+1)
	out, start := 0, 0
	for e, end := range b.ends {
		if end == start {
			return nil, fmt.Errorf("%w: edge %d has no pins", errBuild, e)
		}
		p := pins[start:end]
		sort.Ints(p)
		h.edgeStart[e] = out
		for i, v := range p {
			if i == 0 || v != p[i-1] {
				if v < 0 || v >= n {
					return nil, fmt.Errorf("%w: edge %d pin %d out of range [0,%d)", errBuild, e, v, n)
				}
				pins[out] = v
				out++
			}
		}
		start = end
	}
	h.edgeStart[numEdges] = out
	h.pins = pins[:out:out]
	h.vertexWeight = make([]int64, n)
	copy(h.vertexWeight, b.vertexWeight)
	h.edgeWeight = make([]int64, numEdges)
	copy(h.edgeWeight, b.edgeWeight)
	if err := h.index(); err != nil {
		return nil, err
	}
	if b.vertexNames != nil {
		h.vertexNames = make([]string, n)
		copy(h.vertexNames, b.vertexNames)
	}
	if b.edgeNames != nil {
		h.edgeNames = make([]string, numEdges)
		copy(h.edgeNames, b.edgeNames)
	}
	return h, nil
}

// FromCSR adopts a hypergraph with n vertices that is already in CSR
// form: net e's pins are pins[starts[e]:starts[e+1]], strictly
// ascending, and the vertex and net weights are vertexWeight (length
// n) and edgeWeight (one per net). It checks shape, range, order, empty
// nets and weights in O(pins) and sorts nothing. The hypergraph keeps
// the four slices, so the caller must not modify them afterwards.
func FromCSR(n int, starts, pins []int, vertexWeight, edgeWeight []int64) (*Hypergraph, error) {
	m := len(starts) - 1
	switch {
	case m < 0 || starts[0] != 0 || starts[m] != len(pins):
		return nil, fmt.Errorf("%w: net starts do not span the %d pins", errBuild, len(pins))
	case len(vertexWeight) != n || len(edgeWeight) != m:
		return nil, fmt.Errorf("%w: %d vertex and %d net weights for %d vertices and %d nets",
			errBuild, len(vertexWeight), len(edgeWeight), n, m)
	}
	for e := 0; e < m; e++ {
		if starts[e] >= starts[e+1] {
			return nil, fmt.Errorf("%w: edge %d has no pins", errBuild, e)
		}
		prev := -1
		for _, v := range pins[starts[e]:starts[e+1]] {
			if v <= prev || v >= n {
				return nil, fmt.Errorf("%w: edge %d pin %d out of order or range [0,%d)", errBuild, e, v, n)
			}
			prev = v
		}
	}
	h := &Hypergraph{numVertices: n, edgeStart: starts, pins: pins, vertexWeight: vertexWeight, edgeWeight: edgeWeight}
	if err := h.index(); err != nil {
		return nil, err
	}
	return h, nil
}

// index completes a hypergraph whose nets and weights are set: it
// builds the vertex → incident edges CSR by counting sort, checks that
// no weight is negative, and totals the vertex weights.
func (h *Hypergraph) index() error {
	n := h.numVertices
	h.vertStart = make([]int, n+1)
	for _, p := range h.pins {
		h.vertStart[p+1]++
	}
	for v := 0; v < n; v++ {
		h.vertStart[v+1] += h.vertStart[v]
	}
	h.incident = make([]int, len(h.pins))
	cursor := make([]int, n)
	copy(cursor, h.vertStart[:n])
	for e := 0; e < h.NumEdges(); e++ {
		for _, p := range h.EdgePins(e) {
			h.incident[cursor[p]] = e
			cursor[p]++
		}
	}
	for v, w := range h.vertexWeight {
		if w < 0 {
			return fmt.Errorf("%w: vertex %d has negative weight %d", errBuild, v, w)
		}
		h.totalVertexWeight += w
	}
	for e, w := range h.edgeWeight {
		if w < 0 {
			return fmt.Errorf("%w: edge %d has negative weight %d", errBuild, e, w)
		}
	}
	return nil
}

// MustBuild is Build that panics on error; intended for tests and
// hand-constructed examples.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// FromEdges is a convenience constructor building an unweighted
// hypergraph with n vertices from a pin list per edge.
func FromEdges(n int, edges [][]int) (*Hypergraph, error) {
	b := NewBuilder(n)
	for _, pins := range edges {
		b.AddEdge(pins...)
	}
	return b.Build()
}

// String returns a compact human-readable summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{vertices: %d, edges: %d, pins: %d}",
		h.NumVertices(), h.NumEdges(), h.NumPins())
}

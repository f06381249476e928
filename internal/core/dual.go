package core

import (
	"math/bits"
	"sort"

	"fasthgp/internal/engine"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/partition"
)

// The lease helpers draw a buffer from the multi-start scratch arena
// when one is available and fall back to a fresh allocation otherwise,
// so the public entry points (nil scratch) keep their allocate-and-
// forget semantics while the engine's hot path reuses everything.

func leaseInts(s *engine.Scratch, n int) []int {
	if s != nil {
		return s.Ints(n)
	}
	return make([]int, n)
}

func leaseBools(s *engine.Scratch, n int) []bool {
	if s != nil {
		return s.Bools(n)
	}
	return make([]bool, n)
}

func leaseSides(s *engine.Scratch, n int) []partition.Side {
	if s != nil {
		return s.Sides(n)
	}
	return make([]partition.Side, n)
}

func leaseUint64s(s *engine.Scratch, n int) []uint64 {
	if s != nil {
		return s.Uint64s(n)
	}
	return make([]uint64, n)
}

// BoundaryGraph is the bipartite graph G′ on the boundary set of a cut
// in the intersection graph: its vertices are the boundary nets and its
// edges are exactly the G-edges joining boundary nets on opposite sides
// of the cut (same-side edges are deleted, making it bipartite by
// construction).
type BoundaryGraph struct {
	// G is the bipartite boundary graph; vertex k of G is net Nets[k].
	// A dense G′ cut from a dual held as bitset rows may be held as
	// bitset rows too (see buildBoundaryGraphBitset); any other G′ is
	// held as CSR lists.
	G *graph.Graph
	// Nets maps boundary-graph vertex → hypergraph net index.
	Nets []int
	// SideOf maps boundary-graph vertex → its side of the G-cut.
	SideOf []partition.Side
}

// Partial is a partial bipartition of the hypergraph induced by a cut
// of its intersection graph, before boundary completion. See the
// paper's Figure 2: the non-boundary nets of each side place all of
// their modules; only the boundary remains.
type Partial struct {
	// IG is the intersection-graph construction this cut lives in.
	IG *intersect.Result
	// NetSide is the side of every G-vertex under the double-BFS cut.
	NetSide []partition.Side
	// IsBoundary flags the boundary G-vertices.
	IsBoundary []bool
	// Boundary is the bipartite boundary graph G′.
	Boundary *BoundaryGraph
	// U and V are the G-vertex BFS sources (the pseudo-diameter pair).
	U, V int
}

// PartialFromCut cuts the intersection graph by double BFS from
// G-vertices u and v and assembles the induced partial bipartition.
// The intersection graph must be connected (Bipartition handles the
// disconnected case separately); every G-vertex is then labeled.
func PartialFromCut(h *hypergraph.Hypergraph, ig *intersect.Result, u, v int) *Partial {
	return PartialFromCutPolicy(h, ig, u, v, false)
}

// PartialFromCutPolicy is PartialFromCut with an explicit frontier tie
// policy: balanced=false expands the two BFS frontiers in strict
// alternation (the paper's prescription); balanced=true expands the
// side that has claimed fewer vertices (ablated in the benchmarks).
func PartialFromCutPolicy(h *hypergraph.Hypergraph, ig *intersect.Result, u, v int, balanced bool) *Partial {
	return partialFromCut(h, ig, u, v, balanced, true, nil)
}

// partialFromCut is PartialFromCutPolicy drawing every working buffer —
// the double-BFS side labeling and frontiers, the net-side and boundary
// flags, and the boundary graph's CSR lists or rows — from the multi-start
// scratch arena when one is available. A Partial built with a non-nil
// scratch must not outlive the start that leased it (the engine zeroes
// and reuses the buffers on Release); solvePair copies what it keeps.
// rowsOK reports whether a dense G′ may be held as bitset rows (see
// buildBoundaryGraphBitset): the exact completion reads CSR lists, so
// it asks for those directly.
func partialFromCut(h *hypergraph.Hypergraph, ig *intersect.Result, u, v int, balanced, rowsOK bool, s *engine.Scratch) *Partial {
	g := ig.G
	n := g.NumVertices()
	sideBuf := leaseInts(s, n)
	f0 := leaseInts(s, n)[:0]
	f1 := leaseInts(s, n)[:0]
	next := leaseInts(s, n)[:0]
	var raw []int
	if balanced {
		raw = g.DoubleBFSSidesBalancedInto(u, v, sideBuf, f0, f1, next)
	} else {
		raw = g.DoubleBFSSidesInto(u, v, sideBuf, f0, f1, next)
	}
	pb := &Partial{
		IG:         ig,
		NetSide:    leaseSides(s, n),
		IsBoundary: leaseBools(s, n),
		U:          u,
		V:          v,
	}
	for i, s := range raw {
		switch s {
		case 0:
			pb.NetSide[i] = partition.Left
		case 1:
			pb.NetSide[i] = partition.Right
		default:
			// Unreachable vertices cannot occur on a connected G; treat
			// defensively as Left so downstream stays total.
			pb.NetSide[i] = partition.Left
		}
	}
	pb.Boundary = buildBoundaryGraph(ig, pb.NetSide, pb.IsBoundary, rowsOK, s)
	return pb
}

// buildBoundaryGraph flags the boundary G-vertices into isBoundary and
// extracts G′ from the cut labeling by direct CSR construction in two
// passes over G. The first sums each row's neighbour sides (Left = 0,
// Right = 1): the sum is a Left vertex's cross degree, the row length
// minus it a Right vertex's; a vertex is on the boundary iff that is
// positive, and a running total of the degrees gives the CSR offsets.
// The second emits the boundary rows without a flag test (a cross
// neighbour of a boundary vertex is itself on the boundary) and without
// branches: every neighbour's G′ index is stored at the cursor, which
// advances only across the cut, so a same-side store is overwritten by
// the next one (one spare slot absorbs the last row's). Only cross
// edges are kept, which is what makes G′ bipartite. G′ indices follow
// ascending G order and Neighbors lists are sorted, so every emitted
// row is already sorted, and G is simple, so no duplicates arise.
func buildBoundaryGraph(ig *intersect.Result, side []partition.Side, isBoundary []bool, rowsOK bool, s *engine.Scratch) *BoundaryGraph {
	g := ig.G
	if g.Bitset() {
		return buildBoundaryGraphBitset(ig, side, isBoundary, rowsOK, s)
	}
	n := g.NumVertices()
	bgIndex := leaseInts(s, n)
	start := leaseInts(s, n+1)
	nb := 0
	for i := 0; i < n; i++ {
		row := g.Neighbors(i)
		right := 0
		for _, j := range row {
			right += int(side[j])
		}
		cross := right + int(side[i])*(len(row)-2*right)
		if cross > 0 {
			isBoundary[i] = true
			bgIndex[i] = nb
			start[nb+1] = start[nb] + cross
			nb++
		}
	}
	start = start[:nb+1]
	bg := &BoundaryGraph{}
	if nb > 0 {
		bg.Nets = leaseInts(s, nb)
		bg.SideOf = leaseSides(s, nb)
	}
	adj := leaseInts(s, start[nb]+1)
	c, bi := 0, 0
	for i := 0; i < n; i++ {
		if !isBoundary[i] {
			continue
		}
		bg.Nets[bi] = ig.NetOf[i]
		bg.SideOf[bi] = side[i]
		bi++
		si := side[i]
		for _, j := range g.Neighbors(i) {
			adj[c] = bgIndex[j]
			c += int(side[j] ^ si)
		}
	}
	bg.G = graph.UncheckedCSR(start, adj[:start[nb]])
	return bg
}

// buildBoundaryGraphBitset is buildBoundaryGraph over bitset rows. With
// right the bitset of Right vertices, a Left vertex's cross neighbours
// are row & right and a Right vertex's row &^ right, so a cross degree
// is a popcount, and a G′ row is read off those words lowest bit first
// — the ascending order of the CSR row, so G′ comes out identical.
//
// The cross degrees sum to 2|E′| before G′ is allocated, so when
// rowsOK is set a dense G′ (see denseBoundary) is held as bitset rows
// too, in G′ index space. Boundary vertices keep their G order there,
// so the vertices of a G word that lies wholly on the boundary land on
// consecutive G′ indices from the G′ index of the word's first vertex:
// the masked word moves as one shift, split over at most two G′ words.
// Other words move bit by bit.
func buildBoundaryGraphBitset(ig *intersect.Result, side []partition.Side, isBoundary []bool, rowsOK bool, s *engine.Scratch) *BoundaryGraph {
	g := ig.G
	n := g.NumVertices()
	words := graph.RowWords(n)
	right := leaseUint64s(s, words)
	for i, si := range side {
		right[i>>6] |= uint64(si) << (i & 63)
	}
	// flip(i) is all ones for a Right vertex, so right ^ flip(i) is the
	// other side's mask.
	flip := func(i int) uint64 { return -uint64(side[i]) }
	bgIndex := leaseInts(s, n)
	start := leaseInts(s, n+1)
	nb := 0
	for i := 0; i < n; i++ {
		f, cross := flip(i), 0
		for k, x := range g.Row(i) {
			cross += bits.OnesCount64(x & (right[k] ^ f))
		}
		if cross > 0 {
			isBoundary[i] = true
			bgIndex[i] = nb
			start[nb+1] = start[nb] + cross
			nb++
		}
	}
	start = start[:nb+1]
	bg := &BoundaryGraph{}
	if nb > 0 {
		bg.Nets = leaseInts(s, nb)
		bg.SideOf = leaseSides(s, nb)
	}
	dense := rowsOK && denseBoundary(nb, start[nb])
	var adj []int
	var rows []uint64
	var to []int
	bw := graph.RowWords(nb)
	if dense {
		rows = leaseUint64s(s, nb*bw)
		// to[k] is the G′ index of G word k's first vertex when every
		// vertex of the word is on the boundary, else -1: the word's end
		// vertices are, and their G′ indices lie as far apart as in G.
		to = leaseInts(s, words)
		for k := range to {
			lo, hi := k<<6, min(k<<6+63, n-1)
			to[k] = -1
			if isBoundary[lo] && isBoundary[hi] && bgIndex[hi]-bgIndex[lo] == hi-lo {
				to[k] = bgIndex[lo]
			}
		}
	} else {
		adj = leaseInts(s, start[nb])
	}
	c, bi := 0, 0
	for i := 0; i < n; i++ {
		if !isBoundary[i] {
			continue
		}
		bg.Nets[bi] = ig.NetOf[i]
		bg.SideOf[bi] = side[i]
		f := flip(i)
		if !dense {
			for k, x := range g.Row(i) {
				for m := x & (right[k] ^ f); m != 0; m &= m - 1 {
					adj[c] = bgIndex[k<<6+bits.TrailingZeros64(m)]
					c++
				}
			}
		} else {
			row := rows[bi*bw : (bi+1)*bw]
			for k, x := range g.Row(i) {
				m := x & (right[k] ^ f)
				if o := to[k]; o >= 0 {
					// A shift of 64 yields 0, and a nonzero spill holds
					// real vertices, so its word exists.
					row[o>>6] |= m << (o & 63)
					if spill := m >> (64 - o&63); spill != 0 {
						row[o>>6+1] |= spill
					}
					continue
				}
				for ; m != 0; m &= m - 1 {
					j := bgIndex[k<<6+bits.TrailingZeros64(m)]
					row[j>>6] |= 1 << (j & 63)
				}
			}
		}
		bi++
	}
	if dense {
		bg.G = graph.UncheckedBitset(nb, rows)
	} else {
		bg.G = graph.UncheckedCSR(start, adj)
	}
	return bg
}

// denseBoundary reports whether a G′ on nb vertices with arcs = 2|E′|
// directed arcs is held as bitset rows: when its CSR lists would take
// at least four times the rows' nb·⌈nb/64⌉ words. Below that factor the
// bucket-queue completion over CSR measured faster than the key scans
// of the bitset completion (DESIGN §9); at or above it the scans cost
// at most nb² ≤ 32·|E′|, so the bitset path stays linear in G′.
func denseBoundary(nb, arcs int) bool {
	return nb > 0 && 4*nb*graph.RowWords(nb) <= arcs
}

// BaseAssignment places the modules of every non-boundary net on that
// net's side and returns the resulting partial module bipartition along
// with the committed weight per side. Modules of boundary nets stay
// Unassigned until completion.
func (pb *Partial) BaseAssignment(h *hypergraph.Hypergraph) (p *partition.Bipartition, leftW, rightW int64) {
	p = partition.New(h.NumVertices())
	for i, netID := range pb.IG.NetOf {
		if pb.IsBoundary[i] {
			continue
		}
		s := pb.NetSide[i]
		for _, m := range h.EdgePins(netID) {
			if p.Side(m) == partition.Unassigned {
				p.Assign(m, s)
				if s == partition.Left {
					leftW += h.VertexWeight(m)
				} else {
					rightW += h.VertexWeight(m)
				}
			}
		}
	}
	return p, leftW, rightW
}

// CommitWinners assigns the modules of every winner net to its side of
// the cut and returns the loser nets (ascending by net index). Modules
// already placed (by non-boundary nets or earlier winners) are left
// untouched; by the independence of the winner set this never
// conflicts.
func (pb *Partial) CommitWinners(h *hypergraph.Hypergraph, p *partition.Bipartition, winner []bool) (losers []int) {
	bg := pb.Boundary
	for k := range bg.Nets {
		if !winner[k] {
			losers = append(losers, bg.Nets[k])
			continue
		}
		s := bg.SideOf[k]
		for _, m := range h.EdgePins(bg.Nets[k]) {
			if p.Side(m) == partition.Unassigned {
				p.Assign(m, s)
			}
		}
	}
	sort.Ints(losers)
	return losers
}

// Apply completes the partial bipartition under the given winner flags
// (one per boundary-graph vertex): non-boundary nets place their
// modules, winners place theirs, and the loser list is returned.
// Leftover modules remain Unassigned; see assignLeftovers.
func (pb *Partial) Apply(h *hypergraph.Hypergraph, winner []bool) (*partition.Bipartition, []int) {
	p, _, _ := pb.BaseAssignment(h)
	losers := pb.CommitWinners(h, p, winner)
	return p, losers
}

// BoundaryNets returns the boundary net indices, ascending.
func (pb *Partial) BoundaryNets() []int {
	nets := append([]int(nil), pb.Boundary.Nets...)
	sort.Ints(nets)
	return nets
}

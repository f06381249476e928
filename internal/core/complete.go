package core

import (
	"math/bits"

	"fasthgp/internal/engine"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/matching"
	"fasthgp/internal/partition"
)

// CompleteCutGreedy runs the paper's Complete-Cut rule on the boundary
// graph and returns the winner flag per boundary-graph vertex:
//
//	<1> select the minimum-degree remaining vertex and mark it a winner;
//	<2> mark all remaining vertices adjacent to it losers;
//	<3> delete the winner, the losers and their incident edges; repeat.
//
// Winners keep all their modules on their own side; losers cross the
// cut. The winner set is an independent set of G′ by construction, so
// the completion is always consistent; the paper's theorem states the
// loser count is within one of the optimum completion for each
// connected component of G′.
func CompleteCutGreedy(bg *BoundaryGraph) []bool {
	winner, _ := completeCut(nil, &Partial{Boundary: bg}, nil)
	return winner
}

// completeCut runs Complete-Cut on pb's G′ in the form it is held in:
// with h nil the greedy rule, otherwise the paper's "engineer's method"
// for the weighted r-bipartition constraint (Section 3):
//
//	Rule: if the left (right) side of the partition has less weight
//	than the right (left), pick the smallest-degree vertex remaining
//	in G′_L (G′_R) as the next winner.
//
// The weight of a side is the total module weight committed to it by
// non-boundary nets and by winners chosen so far. The weighted winner
// set is independent in G′, like the greedy rule's, but the balance of
// the final partition is much tighter at a small cutsize premium — the
// trade the paper reports. The greedy rule is the weighted one with a
// single side and no weights. The weighted rule also returns the module
// assignment it weighed the sides with: every module of a non-boundary
// net or a winner placed on that net's side, which is what
// Partial.Apply builds from the winners (the winner set is independent,
// so placement order does not matter); the greedy rule returns nil.
// Every working array leases from the scratch arena when one is
// available (nil falls back to fresh allocations); the winner slice
// never outlives the start that leased it.
func completeCut(h *hypergraph.Hypergraph, pb *Partial, scratch *engine.Scratch) ([]bool, *partition.Bipartition) {
	if pb.Boundary.G.Bitset() {
		return completeCutRows(h, pb, scratch)
	}
	return completeCutLists(h, pb, scratch)
}

// CompleteCutExact returns the optimum completion of the boundary
// graph: winners form a maximum independent set of G′ (equivalently,
// losers form a minimum vertex cover, computable exactly by König's
// theorem because G′ is bipartite). This is the library's enhancement
// over the paper's greedy; Section 5 invites "alternative greedy
// methods for partitioning the boundary graph". The matching reads G′
// through Neighbors, which decodes a bitset row at every visit, so
// Algorithm I builds G′ as CSR lists for it (see partialFromCut).
func CompleteCutExact(bg *BoundaryGraph) []bool {
	indep, _, ok := matching.MaxIndependentSet(bg.G)
	if !ok {
		// G′ is bipartite by construction (only cross edges are kept);
		// non-bipartiteness indicates internal corruption.
		panic("core: boundary graph is not bipartite")
	}
	return indep
}

// completeCutLists is completeCut over a G′ held as CSR lists. Each
// side keeps a lazy bucket queue over degrees: a vertex is pushed at the
// start and again whenever its degree drops, and stale entries are
// skipped on pop. A loser's live neighbours are on the winner's side
// (G′ is bipartite), so they re-enter that side's queue. Each vertex is
// pushed once initially and at most once per incident edge, so entries
// fit in n + 2·|E′| slots and the loop is O(V + E) amortized. The
// buckets are flat per-degree FIFO lists (heads/tails index entry+1, 0
// meaning empty) over two entry arrays, so the whole structure leases
// from the arena, and pop order is exactly the per-bucket FIFO order
// that the golden corpus pins down. The loop stops once no vertex is
// alive.
func completeCutLists(h *hypergraph.Hypergraph, pb *Partial, scratch *engine.Scratch) ([]bool, *partition.Bipartition) {
	bg := pb.Boundary
	g := bg.G
	n := g.NumVertices()
	sides := 1
	var p *partition.Bipartition
	var weight [2]int64
	if h != nil {
		sides = 2
		p, weight[0], weight[1] = pb.BaseAssignment(h)
	}
	winner := leaseBools(scratch, n)
	alive := leaseBools(scratch, n)
	deg := leaseInts(scratch, n)
	// Side s's bucket of degree d is heads/tails[s*width+d]; low[s] is at
	// most the smallest degree with a live entry on side s.
	width := g.MaxDegree() + 1
	heads := leaseInts(scratch, sides*width)
	tails := leaseInts(scratch, sides*width)
	entryNext := leaseInts(scratch, n+2*g.NumEdges())
	entryVert := leaseInts(scratch, n+2*g.NumEdges())
	entries := 0
	var low [2]int
	push := func(s, v int) {
		b := s*width + deg[v]
		entryVert[entries] = v
		if tails[b] == 0 {
			heads[b] = entries + 1
		} else {
			entryNext[tails[b]-1] = entries + 1
		}
		tails[b] = entries + 1
		entries++
		low[s] = min(low[s], deg[v])
	}
	pop := func(s int) int {
		for ; low[s] < width; low[s]++ {
			b := s*width + low[s]
			for e := heads[b]; e != 0; e = heads[b] {
				heads[b] = entryNext[e-1]
				if heads[b] == 0 {
					tails[b] = 0
				}
				if v := entryVert[e-1]; alive[v] && deg[v] == low[s] {
					return v
				}
			}
		}
		return -1
	}
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
		push(int(bg.SideOf[v])&(sides-1), v)
	}
	for left := n; left > 0; {
		// The lighter side supplies the next winner (ties go left, as in
		// the bisection convention that L absorbs the odd vertex); an
		// exhausted side yields to the other. Every live vertex has a
		// current entry, so some side yields one.
		s := 0
		if weight[0] > weight[1] {
			s = 1
		}
		v := pop(s)
		if v < 0 {
			s ^= 1
			v = pop(s)
		}
		winner[v] = true
		alive[v] = false
		left--
		if p != nil {
			vs := bg.SideOf[v]
			for _, m := range h.EdgePins(bg.Nets[v]) {
				if p.Side(m) == partition.Unassigned {
					p.Assign(m, vs)
					weight[vs] += h.VertexWeight(m)
				}
			}
		}
		for _, u := range g.Neighbors(v) {
			if !alive[u] {
				continue
			}
			alive[u] = false // loser
			left--
			for _, w := range g.Neighbors(u) {
				if alive[w] {
					deg[w]--
					push(s, w)
				}
			}
		}
	}
	return winner, p
}

// completeCutRows is completeCut over a G′ held as bitset rows.
//
// Each side keeps a live bitset. A winner v's losers are row(v) & live
// of the other side, and each loser u decrements the degree of every
// vertex in row(u) & live of v's side (G′ is bipartite, so no loser is
// among them). The next winner is the live vertex of the wanted side
// with the smallest key (degree, arrival), where arrival is when the
// vertex reached its current degree: its index at the start, then a
// counter from n stamped at every decrement. That is the entry the
// lazy FIFO bucket queues of completeCutLists pop: degrees only fall,
// so a vertex enters each degree's bucket once, at its arrival, and the
// lowest non-empty bucket's first live entry is the least key. Every
// winner therefore matches the CSR form's.
//
// The key scans cost O(n) per winner and O(n²) in all, which the
// denseBoundary rule bounds by 32·|E′|; the decrements cost O(|E′|).
func completeCutRows(h *hypergraph.Hypergraph, pb *Partial, scratch *engine.Scratch) ([]bool, *partition.Bipartition) {
	bg := pb.Boundary
	g := bg.G
	n := g.NumVertices()
	words := graph.RowWords(n)
	sides := 1
	var p *partition.Bipartition
	var weight [2]int64
	if h != nil {
		sides = 2
		p, weight[0], weight[1] = pb.BaseAssignment(h)
	}
	var live [2][]uint64
	for s := 0; s < sides; s++ {
		live[s] = leaseUint64s(scratch, words)
	}
	// key packs (degree, arrival) into one word, degree above arrival.
	// Arrivals stay below n + 2|E′|, which fits beside any degree for
	// every n whose rows fit in memory (n < 2²¹).
	shift := bits.Len(uint(n + 2*g.NumEdges()))
	key := leaseUint64s(scratch, n)
	for v := 0; v < n; v++ {
		s := int(bg.SideOf[v]) & (sides - 1)
		live[s][v>>6] |= 1 << (v & 63)
		key[v] = uint64(g.Degree(v))<<shift | uint64(v)
	}
	arrival := uint64(n)
	low := uint64(1)<<shift - 1
	winner := leaseBools(scratch, n)
	for {
		// The lighter side supplies the next winner (ties go left, as in
		// the bisection convention that L absorbs the odd vertex); an
		// exhausted side yields to the other.
		s := 0
		if weight[0] > weight[1] {
			s = 1
		}
		v := minKey(live[s], key)
		if v < 0 && sides == 2 {
			s ^= 1
			v = minKey(live[s], key)
		}
		if v < 0 {
			return winner, p
		}
		winner[v] = true
		live[s][v>>6] &^= 1 << (v & 63)
		if p != nil {
			vs := bg.SideOf[v]
			for _, m := range h.EdgePins(bg.Nets[v]) {
				if p.Side(m) == partition.Unassigned {
					p.Assign(m, vs)
					weight[vs] += h.VertexWeight(m)
				}
			}
		}
		other := live[s^(sides-1)]
		for k, x := range g.Row(v) {
			losers := x & other[k]
			other[k] &^= losers
			for ; losers != 0; losers &= losers - 1 {
				u := k<<6 + bits.TrailingZeros64(losers)
				for j, y := range g.Row(u) {
					for m := y & live[s][j]; m != 0; m &= m - 1 {
						w := j<<6 + bits.TrailingZeros64(m)
						key[w] = (key[w]-low-1)&^low | arrival
						arrival++
					}
				}
			}
		}
	}
}

// minKey returns the vertex of the live bitset with the smallest key,
// or -1 when live is empty.
func minKey(live, key []uint64) int {
	best, bestKey := -1, ^uint64(0)
	for k, x := range live {
		for ; x != 0; x &= x - 1 {
			v := k<<6 + bits.TrailingZeros64(x)
			if key[v] < bestKey {
				best, bestKey = v, key[v]
			}
		}
	}
	return best
}

// WinnersIndependent reports whether the winner set is independent in
// the boundary graph — the consistency invariant every completion rule
// must satisfy. Exposed for tests.
func WinnersIndependent(bg *BoundaryGraph, winner []bool) bool {
	for v := 0; v < bg.G.NumVertices(); v++ {
		if !winner[v] {
			continue
		}
		for _, u := range bg.G.Neighbors(v) {
			if winner[u] {
				return false
			}
		}
	}
	return true
}

// LoserCount counts the losers implied by a winner flag vector.
func LoserCount(winner []bool) int {
	c := 0
	for _, w := range winner {
		if !w {
			c++
		}
	}
	return c
}

// OptimalLoserCount returns the optimum (minimum) number of losers for
// the boundary graph: the size of a minimum vertex cover of G′.
func OptimalLoserCount(bg *BoundaryGraph) int {
	_, size, ok := matching.MinVertexCover(bg.G)
	if !ok {
		panic("core: boundary graph is not bipartite")
	}
	return size
}

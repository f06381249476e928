package graph

// Bitset rows: the storage form for dense graphs.
//
// A dual graph whose rows fill a good share of their ⌈n/64⌉ words is
// smaller as bitsets than as CSR lists, and the BFS family then expands
// a frontier vertex with one row &^ seen word operation per 64
// candidates instead of one branch per arc. Every result stays the one
// the CSR form gives: a row's set bits are read lowest first, which is
// the ascending order of a CSR row, so each sweep claims the same
// vertices in the same order — the same queues, distances, parents,
// side labels and component numbers.

import (
	"fmt"
	"math/bits"
)

// RowWords returns the number of 64-bit words in one bitset row of a
// graph on n vertices, ⌈n/64⌉.
func RowWords(n int) int { return (n + 63) >> 6 }

// UncheckedBitset adopts rows as the bitset form of a graph on n
// vertices without validation — the zero-copy constructor for dual
// graphs built internally. Row v is rows[v*RowWords(n):(v+1)*RowWords(n)]
// and has bit u (bit u&63 of word u>>6) set iff {u,v} is an edge.
// Callers must uphold the ValidateCSR invariants: no self-loop bit, no
// bit at or above n, symmetry.
func UncheckedBitset(n int, rows []uint64) *Graph {
	g := &Graph{n: n, bitset: true, rows: rows, words: RowWords(n)}
	arcs := 0
	for v := 0; v < n; v++ {
		d := popCount(g.Row(v))
		arcs += d
		g.maxDeg = max(g.maxDeg, d)
	}
	g.edges = arcs / 2
	return g
}

// Bitset reports whether g is held as bitset rows.
func (g *Graph) Bitset() bool { return g.bitset }

// Row returns the bitset row of v, or nil in the CSR form. The slice
// aliases internal storage and must not be modified.
func (g *Graph) Row(v int) []uint64 {
	if !g.bitset {
		return nil
	}
	return g.rows[v*g.words : (v+1)*g.words]
}

// popCount returns the number of set bits in row.
func popCount(row []uint64) int {
	c := 0
	for _, w := range row {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendBits appends the index of every set bit of row to dst,
// ascending.
func appendBits(dst []int, row []uint64) []int {
	for k, w := range row {
		for w != 0 {
			dst = append(dst, k<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// claim appends to dst, ascending, every neighbour of v not yet in
// seen, and adds them to seen: one BFS expansion step.
func (g *Graph) claim(v int, seen []uint64, dst []int) []int {
	for k, w := range g.rows[v*g.words : (v+1)*g.words] {
		fresh := w &^ seen[k]
		if fresh == 0 {
			continue
		}
		seen[k] |= fresh
		for fresh != 0 {
			dst = append(dst, k<<6+bits.TrailingZeros64(fresh))
			fresh &= fresh - 1
		}
	}
	return dst
}

// seenSet returns buf's cleared bitset of g's row width, with src set
// when src ≥ 0.
func (g *Graph) seenSet(buf *bfsBuffers, src int) []uint64 {
	if cap(buf.seen) < g.words {
		buf.seen = make([]uint64, g.words)
	}
	seen := buf.seen[:g.words]
	clear(seen)
	if src >= 0 {
		seen[src>>6] |= 1 << (src & 63)
	}
	return seen
}

// validateBitset is ValidateCSR for the bitset form.
func (g *Graph) validateBitset() error {
	if g.n < 0 || g.words != RowWords(g.n) || len(g.rows) != g.n*g.words {
		return fmt.Errorf("graph: bitset: %d words for %d vertices, want %d", len(g.rows), g.n, g.n*RowWords(g.n))
	}
	for v := 0; v < g.n; v++ {
		row := g.Row(v)
		if row[v>>6]&(1<<(v&63)) != 0 {
			return fmt.Errorf("graph: bitset: vertex %d has a self-loop", v)
		}
		if tail := g.n & 63; tail != 0 && row[g.words-1]>>tail != 0 {
			return fmt.Errorf("graph: bitset: vertex %d lists an out-of-range neighbor", v)
		}
		for _, u := range appendBits(nil, row) {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: bitset: arc %d->%d has no reverse", v, u)
			}
		}
	}
	return nil
}

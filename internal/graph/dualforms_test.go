package graph

// Differential suite for the two storage forms: on every graph, every
// exported method must answer the same whether the graph is held as
// CSR lists or as bitset rows — rows, degrees, edge tests, BFS
// distances and parents, far vertices (one source at a time and
// batched), longest-path draws, both double-BFS labelings and component
// numbering. The fuzz target extends
// the check to arbitrary edge lists.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// bitsetOf returns g re-held as bitset rows.
func bitsetOf(g *Graph) *Graph {
	n := g.NumVertices()
	w := RowWords(n)
	rows := make([]uint64, n*w)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			rows[v*w+u>>6] |= 1 << (u & 63)
		}
	}
	return UncheckedBitset(n, rows)
}

// checkDualForms compares the CSR graph c with its bitset form on every
// exported method: all-vertex queries everywhere, BFS-family queries
// from the given sources and source pairs.
func checkDualForms(t *testing.T, name string, c *Graph, sources []int, pairs [][2]int) {
	t.Helper()
	b := bitsetOf(c)
	if !b.Bitset() || c.Bitset() {
		t.Fatalf("%s: forms not as built: csr.Bitset()=%v bitset.Bitset()=%v", name, c.Bitset(), b.Bitset())
	}
	if err := b.ValidateCSR(); err != nil {
		t.Fatalf("%s: bitset invariants: %v", name, err)
	}
	n := c.NumVertices()
	if b.NumVertices() != n || b.NumEdges() != c.NumEdges() || b.MaxDegree() != c.MaxDegree() || b.String() != c.String() {
		t.Fatalf("%s: sizes differ: bitset %v maxdeg %d, csr %v maxdeg %d", name, b, b.MaxDegree(), c, c.MaxDegree())
	}
	for v := 0; v < n; v++ {
		if got, want := b.Neighbors(v), c.Neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, csr %v", name, v, got, want)
		}
		if b.Degree(v) != c.Degree(v) {
			t.Fatalf("%s: Degree(%d) = %d, csr %d", name, v, b.Degree(v), c.Degree(v))
		}
		for u := -1; u <= n; u++ {
			if b.HasEdge(v, u) != c.HasEdge(v, u) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, csr %v", name, v, u, b.HasEdge(v, u), c.HasEdge(v, u))
			}
		}
	}
	for _, src := range sources {
		bd, bp := b.BFS(src)
		cd, cp := c.BFS(src)
		if !reflect.DeepEqual(bd, cd) || !reflect.DeepEqual(bp, cp) {
			t.Fatalf("%s: BFS(%d) differs\nbitset %v %v\n   csr %v %v", name, src, bd, bp, cd, cp)
		}
		bf, bx := b.Eccentricity(src)
		cf, cx := c.Eccentricity(src)
		if bf != cf || bx != cx {
			t.Fatalf("%s: Eccentricity(%d) = (%d,%d), csr (%d,%d)", name, src, bf, bx, cf, cx)
		}
		for dst := 0; dst < n; dst += max(1, n/8) {
			if bdst, cdst := b.Distance(src, dst), c.Distance(src, dst); bdst != cd[dst] || cdst != cd[dst] {
				t.Fatalf("%s: Distance(%d,%d) = %d, csr %d; BFS says %d", name, src, dst, bdst, cdst, cd[dst])
			}
		}
	}
	checkEccentricities(t, name, c, b, sources)
	for seed := int64(0); seed < 3; seed++ {
		bu, bv, bdep := b.LongestBFSPath(rand.New(rand.NewSource(seed)))
		cu, cv, cdep := c.LongestBFSPath(rand.New(rand.NewSource(seed)))
		if bu != cu || bv != cv || bdep != cdep {
			t.Fatalf("%s: LongestBFSPath(seed %d) = (%d,%d,%d), csr (%d,%d,%d)", name, seed, bu, bv, bdep, cu, cv, cdep)
		}
	}
	// Dirty, shared buffers: the Into variants must not read them.
	side := make([]int, n)
	f0, f1, next := make([]int, 0, n), make([]int, 0, n), make([]int, 0, n)
	for _, p := range pairs {
		u, v := p[0], p[1]
		want := c.DoubleBFSSides(u, v)
		if got := b.DoubleBFSSidesInto(u, v, false, side, f0, f1, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DoubleBFSSides(%d,%d) = %v, csr %v", name, u, v, got, want)
		}
		want = c.DoubleBFSSidesBalanced(u, v)
		if got := b.DoubleBFSSidesInto(u, v, true, side, f0, f1, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DoubleBFSSidesBalanced(%d,%d) = %v, csr %v", name, u, v, got, want)
		}
	}
	bc, bk := b.Components()
	cc, ck := c.Components()
	if bk != ck || !reflect.DeepEqual(bc, cc) || b.IsConnected() != c.IsConnected() {
		t.Fatalf("%s: Components = %d %v, csr %d %v", name, bk, bc, ck, cc)
	}
	bcol, bok := b.IsBipartite()
	ccol, cok := c.IsBipartite()
	if bok != cok || !reflect.DeepEqual(bcol, ccol) {
		t.Fatalf("%s: IsBipartite = %v, csr %v", name, bok, cok)
	}
	keep := func(v int) bool { return v%3 != 1 }
	bs, bo := b.Subgraph(keep)
	cs, co := c.Subgraph(keep)
	if !reflect.DeepEqual(bs, cs) || !reflect.DeepEqual(bo, co) {
		t.Fatalf("%s: Subgraph differs", name)
	}
	if n <= 70 && b.Diameter() != c.Diameter() {
		t.Fatalf("%s: Diameter = %d, csr %d", name, b.Diameter(), c.Diameter())
	}
}

// checkEccentricities compares Eccentricities on both forms, and the
// bit-parallel body on c even where Eccentricities would sweep each
// source alone, with c.Eccentricity per source. The batches are the
// first source alone, the first 64, and 64 cycling through the sources
// (repeats when there are fewer).
func checkEccentricities(t *testing.T, name string, c, b *Graph, sources []int) {
	t.Helper()
	if len(sources) == 0 {
		return
	}
	cycled := make([]int, 64)
	for j := range cycled {
		cycled[j] = sources[j%len(sources)]
	}
	for _, srcs := range [][]int{sources[:1], sources[:min(len(sources), 64)], cycled} {
		far, dist := make([]int, len(srcs)), make([]int, len(srcs))
		check := func(form string) {
			t.Helper()
			for j, src := range srcs {
				if wf, wd := c.Eccentricity(src); far[j] != wf || dist[j] != wd {
					t.Fatalf("%s: %s over %d sources: source %d (#%d) = (%d,%d), Eccentricity (%d,%d)",
						name, form, len(srcs), src, j, far[j], dist[j], wf, wd)
				}
			}
		}
		c.Eccentricities(srcs, far, dist)
		check("csr Eccentricities")
		b.Eccentricities(srcs, far, dist)
		check("bitset Eccentricities")
		if c.eccentricities(srcs, far, dist) {
			check("bit-parallel sweep")
		} else if len(srcs) >= batchMinSources {
			t.Logf("%s: %d sources gave up after %d levels", name, len(srcs), 2*len(srcs)+1)
		}
	}
}

// blockGraph builds a random graph of edge density p on n vertices,
// split into blocks independent blocks (disconnected when blocks > 1).
func blockGraph(rng *rand.Rand, n, blocks int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u%blocks == v%blocks && rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestDualFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 63, 64, 65, 200, 700} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
			for _, blocks := range []int{1, 3} {
				g := blockGraph(rng, n, blocks, p)
				sources := []int{0, n - 1, rng.Intn(n), rng.Intn(n)}
				pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {sources[2], sources[2]}, {rng.Intn(n), rng.Intn(n)}}
				checkDualForms(t, fmt.Sprintf("n=%d p=%.2f blocks=%d", n, p, blocks), g, sources, pairs)
			}
		}
	}
}

func TestDualFormsSmallShapes(t *testing.T) {
	star := NewBuilder(66)
	for v := 1; v < 66; v++ {
		star.AddEdge(0, v)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).MustBuild()},
		{"isolated-70", NewBuilder(70).MustBuild()},
		{"path-130", path(t, 130)},
		{"cycle-64", cycle(t, 64)},
		{"star-66", star.MustBuild()},
	} {
		n := c.g.NumVertices()
		var sources []int
		var pairs [][2]int
		for v := 0; v < n; v++ {
			sources = append(sources, v)
			pairs = append(pairs, [2]int{v, v}, [2]int{v, n - 1 - v})
		}
		checkDualForms(t, c.name, c.g, sources, pairs)
	}
}

func TestValidateBitsetRejectsInvalid(t *testing.T) {
	// Path 0-1-2 on 3 vertices, one word per row.
	valid := func() []uint64 { return []uint64{0b010, 0b101, 0b010} }
	if err := UncheckedBitset(3, valid()).ValidateCSR(); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		n       int
		mutate  func([]uint64) []uint64
		wantSub string
	}{
		{"short", 3, func(r []uint64) []uint64 { return r[:2] }, "words"},
		{"self-loop", 3, func(r []uint64) []uint64 { r[1] |= 0b010; return r }, "self-loop"},
		{"bit past n", 3, func(r []uint64) []uint64 { r[0] |= 1 << 5; return r }, "out-of-range"},
		{"asymmetric", 3, func(r []uint64) []uint64 { r[0] |= 0b100; return r }, "no reverse"},
	} {
		g := &Graph{n: tc.n, bitset: true, rows: tc.mutate(valid()), words: RowWords(tc.n)}
		if err := g.ValidateCSR(); err == nil {
			t.Errorf("%s: accepted invalid rows", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// FuzzDualForms decodes bytes into a graph — byte 0 picks n ∈ [1,140],
// so rows span one to three words — and source bytes, and checks the
// bitset form against the CSR form.
func FuzzDualForms(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 0, 3}, uint8(0), uint8(3))
	f.Add([]byte{69, 0, 64, 64, 65, 1, 68, 3, 4}, uint8(64), uint8(68))
	f.Add([]byte{129, 0, 1}, uint8(128), uint8(128))
	f.Add([]byte{0}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, su, sv uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%140 + 1
		b := NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected in-range edges: %v", err)
		}
		u, v := int(su)%n, int(sv)%n
		checkDualForms(t, "fuzz", g, []int{u, v}, [][2]int{{u, v}, {v, u}, {u, u}})
	})
}

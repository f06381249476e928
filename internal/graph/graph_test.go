package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.MustBuild()
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self-loop dropped
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false after dedup")
	}
	if g.HasEdge(1, 1) {
		t.Error("self-loop survived")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge invented an edge")
	}
}

func TestBuilderRangeError(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted out-of-range endpoint")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Error("Build accepted negative endpoint")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []int{0, 3, 4}) {
		t.Errorf("Neighbors(2) = %v, want sorted [0 3 4]", got)
	}
	if g.Degree(2) != 3 || g.Degree(1) != 0 {
		t.Errorf("degrees: %d, %d", g.Degree(2), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestBFSPath(t *testing.T) {
	g := path(t, 5)
	dist, parent := g.BFS(0)
	if !reflect.DeepEqual(dist, []int{0, 1, 2, 3, 4}) {
		t.Errorf("dist = %v", dist)
	}
	if parent[0] != 0 || parent[4] != 3 {
		t.Errorf("parent = %v", parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	dist, parent := g.BFS(0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Errorf("dist = %v, want Unreached for isolated vertices", dist)
	}
	if parent[2] != Unreached {
		t.Errorf("parent = %v", parent)
	}
}

func TestEccentricity(t *testing.T) {
	g := path(t, 6)
	far, d := g.Eccentricity(2)
	if d != 3 || far != 5 {
		t.Errorf("Eccentricity(2) = (%d,%d), want (5,3)", far, d)
	}
}

func TestLongestBFSPathOnPath(t *testing.T) {
	g := path(t, 10)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		u, v, depth := g.LongestBFSPath(rng)
		// Double sweep on a path graph always finds the true diameter.
		if depth != 9 {
			t.Fatalf("depth = %d, want 9", depth)
		}
		if !((u == 0 && v == 9) || (u == 9 && v == 0)) {
			t.Fatalf("endpoints = (%d,%d), want the path ends", u, v)
		}
	}
}

func TestLongestBFSPathEmptyAndSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g0 := NewBuilder(0).MustBuild()
	if _, _, d := g0.LongestBFSPath(rng); d != 0 {
		t.Errorf("empty graph depth = %d", d)
	}
	g1 := NewBuilder(1).MustBuild()
	u, v, d := g1.LongestBFSPath(rng)
	if u != 0 || v != 0 || d != 0 {
		t.Errorf("single vertex = (%d,%d,%d)", u, v, d)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(t, 7), 6},
		{cycle(t, 8), 4},
		{cycle(t, 9), 4},
	}
	for i, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("case %d: Diameter = %d, want %d", i, got, c.want)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("k = %d, want 3 (comp=%v)", k, comp)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("comp = %v", comp)
	}
	if g.IsConnected() {
		t.Error("IsConnected = true for 3-component graph")
	}
	if !path(t, 4).IsConnected() {
		t.Error("IsConnected = false for path")
	}
	if !NewBuilder(0).MustBuild().IsConnected() {
		t.Error("empty graph should count as connected")
	}
}

func TestIsBipartite(t *testing.T) {
	if _, ok := cycle(t, 6).IsBipartite(); !ok {
		t.Error("even cycle reported non-bipartite")
	}
	if _, ok := cycle(t, 5).IsBipartite(); ok {
		t.Error("odd cycle reported bipartite")
	}
	color, ok := path(t, 4).IsBipartite()
	if !ok {
		t.Fatal("path reported non-bipartite")
	}
	for i := 0; i+1 < 4; i++ {
		if color[i] == color[i+1] {
			t.Errorf("adjacent vertices share color: %v", color)
		}
	}
}

func TestDoubleBFSSidesPath(t *testing.T) {
	g := path(t, 6)
	side := g.DoubleBFSSides(0, 5)
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(side, want) {
		t.Errorf("side = %v, want %v", side, want)
	}
}

func TestDoubleBFSSidesTie(t *testing.T) {
	// Path of odd length: middle vertex is claimed by side 0 (expands
	// first in the alternation).
	g := path(t, 5)
	side := g.DoubleBFSSides(0, 4)
	want := []int{0, 0, 0, 1, 1}
	if !reflect.DeepEqual(side, want) {
		t.Errorf("side = %v, want %v", side, want)
	}
}

func TestDoubleBFSSidesSameSource(t *testing.T) {
	g := path(t, 4)
	side := g.DoubleBFSSides(2, 2)
	for v, s := range side {
		if s != 0 {
			t.Errorf("side[%d] = %d, want 0 when both sources coincide", v, s)
		}
	}
}

func TestDoubleBFSSidesUnreachable(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	side := g.DoubleBFSSides(0, 2)
	if side[0] != 0 || side[1] != 0 {
		t.Errorf("component of u mislabeled: %v", side)
	}
	if side[2] != 1 || side[3] != 1 {
		t.Errorf("component of v mislabeled: %v", side)
	}
	if side[4] != Unreached {
		t.Errorf("isolated vertex labeled %d, want Unreached", side[4])
	}
}

func TestDoubleBFSSidesBalanced(t *testing.T) {
	// Lollipop: a long path hanging off one end of a short one. The
	// balanced policy should give the path side more levels.
	b := NewBuilder(10)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(8, 9)
	g := b.MustBuild()
	side := g.DoubleBFSSidesBalanced(0, 9)
	if side[0] != 0 || side[9] != 1 {
		t.Fatalf("sources mislabeled: %v", side)
	}
	// Every vertex labeled, only 0/1.
	for v, s := range side {
		if s != 0 && s != 1 {
			t.Errorf("vertex %d label %d", v, s)
		}
	}
	// Same-source degenerate case.
	same := g.DoubleBFSSidesBalanced(3, 3)
	for v, s := range same {
		if s != 0 {
			t.Errorf("same-source: vertex %d label %d, want 0", v, s)
		}
	}
}

func TestPropertyDoubleBFSBalancedCovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, 0.15)
		u, v := rng.Intn(n), rng.Intn(n)
		side := g.DoubleBFSSidesBalanced(u, v)
		du, _ := g.BFS(u)
		dv, _ := g.BFS(v)
		for x := 0; x < n; x++ {
			reachable := du[x] != Unreached || dv[x] != Unreached
			if reachable != (side[x] != Unreached) {
				return false
			}
		}
		return side[u] == 0 && (u == v || side[v] == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSubgraph(t *testing.T) {
	g := cycle(t, 6)
	sub, origOf := g.Subgraph(func(v int) bool { return v != 3 })
	if sub.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", sub.NumVertices())
	}
	if sub.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4 (cycle minus one vertex = path)", sub.NumEdges())
	}
	if !reflect.DeepEqual(origOf, []int{0, 1, 2, 4, 5}) {
		t.Errorf("origOf = %v", origOf)
	}
	if sub.Diameter() != 4 {
		t.Errorf("subgraph diameter = %d, want 4", sub.Diameter())
	}
}

func TestString(t *testing.T) {
	g := path(t, 3)
	if got, want := g.String(), "Graph{vertices: 3, edges: 2}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// TestPropertyBFSDistTriangle checks the BFS distance function obeys
// |dist(u,x) − dist(u,y)| ≤ 1 for every edge {x,y} in the same
// component as u.
func TestPropertyBFSDistTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.2)
		src := rng.Intn(n)
		dist, _ := g.BFS(src)
		for x := 0; x < n; x++ {
			for _, y := range g.Neighbors(x) {
				if dist[x] == Unreached || dist[y] == Unreached {
					if dist[x] != dist[y] {
						return false // edge spanning reachable/unreachable
					}
					continue
				}
				d := dist[x] - dist[y]
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDoubleBFSCoversComponent checks every vertex reachable
// from u or v is labeled, labels are only 0/1, and each source keeps
// its own label when distinct.
func TestPropertyDoubleBFSCoversComponent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, 0.15)
		u, v := rng.Intn(n), rng.Intn(n)
		side := g.DoubleBFSSides(u, v)
		if side[u] != 0 {
			return false
		}
		if v != u && side[v] != 1 {
			return false
		}
		du, _ := g.BFS(u)
		dv, _ := g.BFS(v)
		for x := 0; x < n; x++ {
			reachable := du[x] != Unreached || dv[x] != Unreached
			if reachable != (side[x] != Unreached) {
				return false
			}
			if side[x] != Unreached && side[x] != 0 && side[x] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLongestBFSPathLowerBoundsDiameter checks the pseudo-
// diameter never exceeds, and on connected graphs reasonably tracks,
// the true diameter.
func TestPropertyLongestBFSPathLowerBoundsDiameter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.25)
		_, _, depth := g.LongestBFSPath(rng)
		return depth <= g.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDiameterOfRandomBoundedDegreeIsLogarithmic(t *testing.T) {
	// Sanity check of the Bollobás–de la Vega flavor used by the paper:
	// random cubic-ish graphs have small diameter. We only assert a
	// generous bound to keep the test robust.
	rng := rand.New(rand.NewSource(7))
	n := 256
	b := NewBuilder(n)
	perm1 := rng.Perm(n)
	perm2 := rng.Perm(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n) // Hamilton cycle keeps it connected
		b.AddEdge(perm1[i], perm2[i])
	}
	g := b.MustBuild()
	if d := g.Diameter(); d > 20 {
		t.Errorf("diameter of random bounded-degree graph = %d, want O(log n) ~ <= 20", d)
	}
}

// BenchmarkEccentricities compares the bit-parallel sweep with one
// sweep per source, at 1 to 64 sources, on a sparse random graph of
// the size of Table-2 IC2's dual (3,496 vertices, ~21k edges) and on a
// 23-vertex path (the dual of corpus path-24): the comparison behind
// batchMinSources and the level cap. The batch runs even where
// Eccentricities would not use it; on the path it gives up once its
// levels pass twice the sources, which the timing includes.
func BenchmarkEccentricities(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sparse := NewBuilder(3496)
	for i := 0; i < 3496; i++ {
		sparse.AddEdge(i, (i+1)%3496) // a Hamilton cycle keeps it connected
	}
	for len(sparse.pairs) < 21321 {
		sparse.AddEdge(rng.Intn(3496), rng.Intn(3496))
	}
	line := NewBuilder(23)
	for i := 0; i+1 < 23; i++ {
		line.AddEdge(i, i+1)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"random-3496", sparse.MustBuild()}, {"path-23", line.MustBuild()}} {
		for _, k := range []int{1, 2, 3, 4, 8, 64} {
			srcs := make([]int, k)
			for j := range srcs {
				srcs[j] = rng.Intn(c.g.NumVertices())
			}
			far, dist := make([]int, k), make([]int, k)
			b.Run(fmt.Sprintf("%s/sources=%d/batch", c.name, k), func(b *testing.B) {
				for range b.N {
					if !c.g.eccentricities(srcs, far, dist) {
						for j, src := range srcs {
							far[j], dist[j] = c.g.Eccentricity(src)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/sources=%d/each", c.name, k), func(b *testing.B) {
				for range b.N {
					for j, src := range srcs {
						far[j], dist[j] = c.g.Eccentricity(src)
					}
				}
			})
		}
	}
}

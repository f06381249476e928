package graph

// Full-scan references for the BFS sweeps. Eccentricity, DoubleBFSSides
// and DoubleBFSSidesBalanced stop as soon as every vertex is labeled;
// the references below expand every queued row to the end, the way the
// sweeps ran before the early stop, so any label the shortcut changed
// shows up as a difference.

import (
	"math/rand"
	"reflect"
	"testing"
)

// eccentricityReference is a plain BFS from src that runs until the
// queue is empty, then reports the maximum distance and the lowest
// vertex attaining it.
func eccentricityReference(g *Graph, src int) (far, dist int) {
	n := g.NumVertices()
	d := make([]int, n)
	for i := range d {
		d[i] = Unreached
	}
	d[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(v) {
			if d[u] == Unreached {
				d[u] = d[v] + 1
				queue = append(queue, u)
			}
		}
	}
	far, dist = src, 0
	for v, dv := range d {
		if dv > dist {
			far, dist = v, dv
		}
	}
	return far, dist
}

// doubleBFSSidesReference is strict-alternation double BFS that stops
// only when both frontiers are empty.
func doubleBFSSidesReference(g *Graph, u, v int) []int {
	n := g.NumVertices()
	side := make([]int, n)
	for i := range side {
		side[i] = Unreached
	}
	if n == 0 {
		return side
	}
	frontiers := [2][]int{{u}, {v}}
	side[u] = 0
	if v != u {
		side[v] = 1
	}
	for len(frontiers[0]) > 0 || len(frontiers[1]) > 0 {
		for s := 0; s < 2; s++ {
			var next []int
			for _, x := range frontiers[s] {
				if side[x] != s {
					continue
				}
				for _, w := range g.Neighbors(x) {
					if side[w] == Unreached {
						side[w] = s
						next = append(next, w)
					}
				}
			}
			frontiers[s] = next
		}
	}
	return side
}

// doubleBFSSidesBalancedReference is smaller-side-first double BFS that
// stops only when both frontiers are empty.
func doubleBFSSidesBalancedReference(g *Graph, u, v int) []int {
	n := g.NumVertices()
	side := make([]int, n)
	for i := range side {
		side[i] = Unreached
	}
	if n == 0 {
		return side
	}
	frontiers := [2][]int{{u}, {v}}
	claimed := [2]int{1, 0}
	side[u] = 0
	if v != u {
		side[v] = 1
		claimed[1] = 1
	} else {
		frontiers[1] = nil
	}
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
		var next []int
		for _, x := range frontiers[s] {
			for _, w := range g.Neighbors(x) {
				if side[w] == Unreached {
					side[w] = s
					claimed[s]++
					next = append(next, w)
				}
			}
		}
		frontiers[s] = next
	}
	return side
}

// checkAgainstReference compares all three sweeps with their full-scan
// references: Eccentricity from every vertex, and both double-BFS
// policies on every given source pair.
func checkAgainstReference(t *testing.T, name string, g *Graph, pairs [][2]int) {
	t.Helper()
	for src := 0; src < g.NumVertices(); src++ {
		far, d := g.Eccentricity(src)
		wantFar, wantD := eccentricityReference(g, src)
		if far != wantFar || d != wantD {
			t.Errorf("%s: Eccentricity(%d) = (%d,%d), full scan (%d,%d)", name, src, far, d, wantFar, wantD)
		}
	}
	for _, p := range pairs {
		u, v := p[0], p[1]
		if got, want := g.DoubleBFSSides(u, v), doubleBFSSidesReference(g, u, v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DoubleBFSSides(%d,%d) = %v, full scan %v", name, u, v, got, want)
		}
		if got, want := g.DoubleBFSSidesBalanced(u, v), doubleBFSSidesBalancedReference(g, u, v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DoubleBFSSidesBalanced(%d,%d) = %v, full scan %v", name, u, v, got, want)
		}
	}
}

func TestEarlyStopMatchesFullScan(t *testing.T) {
	complete := func(n int) *Graph {
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.MustBuild()
	}
	completeBipartite := func(a, c int) *Graph {
		b := NewBuilder(a + c)
		for u := 0; u < a; u++ {
			for v := a; v < a+c; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.MustBuild()
	}
	star := func(n int) *Graph {
		b := NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(0, v)
		}
		return b.MustBuild()
	}
	disconnected := func() *Graph {
		// A triangle, a path of three and an isolated vertex.
		b := NewBuilder(7)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(0, 2)
		b.AddEdge(3, 4)
		b.AddEdge(4, 5)
		return b.MustBuild()
	}
	rng := rand.New(rand.NewSource(29))
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"single", NewBuilder(1).MustBuild()},
		{"K2", complete(2)},
		{"K9", complete(9)},
		{"K3,5", completeBipartite(3, 5)},
		{"K1,1", completeBipartite(1, 1)},
		{"star-12", star(12)},
		{"path-11", path(t, 11)},
		{"random-30-0.5", randomGraph(rng, 30, 0.5)},
		{"random-40-0.5", randomGraph(rng, 40, 0.5)},
		{"disconnected", disconnected()},
	}
	for _, c := range graphs {
		n := c.g.NumVertices()
		var pairs [][2]int
		for u := 0; u < n; u++ {
			// u == v, every vertex against the last, and one random pair.
			pairs = append(pairs, [2]int{u, u}, [2]int{u, n - 1}, [2]int{u, rng.Intn(n)})
		}
		checkAgainstReference(t, c.name, c.g, pairs)
	}
}

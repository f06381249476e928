package perf

// Steady-state allocation contract of the double BFS: with
// caller-provided buffers (the engine's scratch arena in production) it
// must not allocate at all, under both frontier policies and on both
// storage forms of the dual — dense-500's is held as bitset rows and
// uniform-1k's as CSR lists, so both branches of the one entry point
// are pinned.

import (
	"testing"

	"fasthgp/internal/graph"
	"fasthgp/internal/intersect"
)

func TestDoubleBFSSteadyStateAllocs(t *testing.T) {
	for _, f := range Families() {
		wantBitset := f.Dense
		if !wantBitset && f.Name != "uniform-1k" {
			continue
		}
		res := intersect.Build(f.H, intersect.Options{Threshold: f.Threshold})
		g := res.G
		if g.Bitset() != wantBitset {
			t.Fatalf("%s: dual Bitset() = %v, want %v", f.Name, g.Bitset(), wantBitset)
		}
		n := g.NumVertices()
		u := farthestFrom(g, 0)
		v := farthestFrom(g, u)
		side := make([]int, n)
		f0 := make([]int, 0, n)
		f1 := make([]int, 0, n)
		next := make([]int, 0, n)
		for _, balanced := range []bool{false, true} {
			if a := testing.AllocsPerRun(10, func() {
				g.DoubleBFSSidesInto(u, v, balanced, side, f0, f1, next)
			}); a != 0 {
				t.Errorf("%s: double BFS (balanced %v): %.1f allocs/op with provided buffers, want 0", f.Name, balanced, a)
			}
		}
	}
}

// farthestFrom returns the highest-distance vertex from src under BFS
// (lowest index among ties — the visit order is deterministic).
func farthestFrom(g *graph.Graph, src int) int {
	n := g.NumVertices()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	far := src
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, w := range g.Neighbors(x) {
			if dist[w] < 0 {
				dist[w] = dist[x] + 1
				if dist[w] > dist[far] {
					far = w
				}
				queue = append(queue, w)
			}
		}
	}
	return far
}

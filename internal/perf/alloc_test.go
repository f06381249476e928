package perf

// Steady-state allocation contract of the double-BFS kernels: with
// caller-provided buffers (the engine's scratch arena in production),
// the serial and the balanced variants must not allocate at all. The
// balanced variant is the one history lost track of — its scratch
// threading rides the same partialFromCut path as the serial kernel,
// and this test pins it there.

import (
	"testing"

	"fasthgp/internal/graph"
	"fasthgp/internal/intersect"
)

func TestDoubleBFSSteadyStateAllocs(t *testing.T) {
	f := denseFamily()
	res := intersect.Build(f.H, intersect.Options{Threshold: f.Threshold})
	g := res.G
	n := g.NumVertices()
	u := farthestFrom(g, 0)
	v := farthestFrom(g, u)
	side := make([]int, n)
	f0 := make([]int, 0, n)
	f1 := make([]int, 0, n)
	next := make([]int, 0, n)

	if a := testing.AllocsPerRun(10, func() {
		g.DoubleBFSSidesInto(u, v, side, f0, f1, next)
	}); a != 0 {
		t.Errorf("serial double BFS: %.1f allocs/op with provided buffers, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		g.DoubleBFSSidesBalancedInto(u, v, side, f0, f1, next)
	}); a != 0 {
		t.Errorf("balanced double BFS: %.1f allocs/op with provided buffers, want 0", a)
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

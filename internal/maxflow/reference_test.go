package maxflow

// refNetwork is Network as it was before its arc arrays could be sized
// up front and its searches shared one queue: arcs grow by append from
// empty, and every BFS allocates its own queue. It is the oracle the
// production network must match — flow value, augmentation count and
// both extreme minimum-cut sides.

import (
	"math/rand"
	"slices"
	"testing"
)

type refNetwork struct {
	head  []int
	next  []int
	to    []int
	cap   []int64
	level []int
	iter  []int
	aug   int64
}

func newRef(n int) *refNetwork {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &refNetwork{head: h}
}

func (g *refNetwork) addArc(u, v int, capacity int64) {
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u] = id
	g.head[v] = id + 1
}

func (g *refNetwork) bfs(s, t int) bool {
	n := len(g.head)
	if g.level == nil {
		g.level = make([]int, n)
	}
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int, 0, n)
	g.level[s] = 0
	queue = append(queue, s)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if g.cap[a] > 0 && g.level[v] == -1 {
				g.level[v] = g.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return g.level[t] != -1
}

func (g *refNetwork) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; g.iter[u] != -1; g.iter[u] = g.next[g.iter[u]] {
		a := g.iter[u]
		v := g.to[a]
		if g.cap[a] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		got := g.dfs(v, t, min(f, g.cap[a]))
		if got > 0 {
			g.cap[a] -= got
			g.cap[a^1] += got
			return got
		}
	}
	return 0
}

func (g *refNetwork) maxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	if g.iter == nil {
		g.iter = make([]int, len(g.head))
	}
	var total int64
	for g.bfs(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			g.aug++
			total += f
		}
	}
	return total
}

// reach returns the nodes reachable from x through arcs with residual
// capacity, forward from the source or backward to the sink.
func (g *refNetwork) reach(x int, backward bool) []bool {
	side := make([]bool, len(g.head))
	queue := make([]int, 0, len(g.head))
	side[x] = true
	queue = append(queue, x)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v, c := g.to[a], g.cap[a]
			if backward {
				c = g.cap[a^1]
			}
			if c > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

// TestNetworkMatchesReference builds the same random Lawler-style
// networks in both forms — the production one sized exactly by Grow,
// by an under-estimate, and not at all — and compares every output.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(60)
		type arc struct {
			u, v int
			c    int64
		}
		arcs := make([]arc, rng.Intn(8*n))
		for i := range arcs {
			c := int64(rng.Intn(12))
			if rng.Intn(4) == 0 {
				c = Inf
			}
			arcs[i] = arc{rng.Intn(n), rng.Intn(n), c}
		}
		ref := newRef(n)
		for _, a := range arcs {
			ref.addArc(a.u, a.v, a.c)
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		want := ref.maxFlow(s, tt)
		wantSrc, wantSink := ref.reach(s, false), ref.reach(tt, true)
		for _, reserve := range []int{len(arcs), len(arcs) / 2, 0} {
			g := New(n)
			g.Grow(reserve)
			for _, a := range arcs {
				g.AddArc(a.u, a.v, a.c)
			}
			if got := g.MaxFlow(s, tt); got != want || g.Augmentations() != ref.aug {
				t.Fatalf("trial %d reserve %d: flow %d in %d augmentations, the reference %d in %d",
					trial, reserve, got, g.Augmentations(), want, ref.aug)
			}
			if !slices.Equal(g.MinCutSourceSide(s), wantSrc) {
				t.Fatalf("trial %d reserve %d: source sides differ", trial, reserve)
			}
			if !slices.Equal(g.MinCutSinkSide(tt), wantSink) {
				t.Fatalf("trial %d reserve %d: sink sides differ", trial, reserve)
			}
		}
	}
}

// TestGrowAvoidsReallocation: a network reserved for its exact arc
// count adds them without regrowing any arc array.
func TestGrowAvoidsReallocation(t *testing.T) {
	const n, arcs = 200, 1000
	g := New(n)
	g.Grow(arcs)
	to, capacity, next := &g.to[:1][0], &g.cap[:1][0], &g.next[:1][0]
	for i := 0; i < arcs; i++ {
		g.AddArc(i%n, (i*7+1)%n, 1)
	}
	if &g.to[0] != to || &g.cap[0] != capacity || &g.next[0] != next {
		t.Fatalf("adding %d reserved arcs reallocated an arc array", arcs)
	}
}

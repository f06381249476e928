package maxflow

// refNetwork is Network as it was before arcs were compiled into a
// forward star: each node's arcs form a linked list through head and
// next, arcs grow by append from empty, every BFS allocates its own
// queue and labels every reachable node, and a network is built per
// solve. It is the oracle the production network must match — flow
// value, augmentation count and both extreme minimum-cut sides.

import (
	"fmt"
	"math"
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

// refArc is one arc of a network built in both forms.
type refArc struct {
	u, v int
	c    int64
}

// matchReference solves arcs from s to t on the reference and on g,
// which the caller has Reset to n nodes and may have Grown, and reports
// the first output that differs: flow value, augmentation count, or
// either extreme minimum-cut side.
func matchReference(g *Network, n int, arcs []refArc, s, t int) string {
	ref := newRef(n)
	for _, a := range arcs {
		ref.addArc(a.u, a.v, a.c)
		g.AddArc(a.u, a.v, a.c)
	}
	want := ref.maxFlow(s, t)
	if got := g.MaxFlow(s, t); got != want || g.Augmentations() != ref.aug {
		return fmt.Sprintf("flow %d in %d augmentations, the reference %d in %d", got, g.Augmentations(), want, ref.aug)
	}
	if !slices.Equal(g.MinCutSourceSide(s), ref.reach(s, false)) {
		return "source sides differ"
	}
	if !slices.Equal(g.MinCutSinkSide(t), ref.reach(t, true)) {
		return "sink sides differ"
	}
	return ""
}

// randomArcs draws a Lawler-style arc list over n nodes: capacities
// 0..11 or Inf, self-loops and parallel arcs included.
func randomArcs(rng *rand.Rand, n int) []refArc {
	arcs := make([]refArc, rng.Intn(8*n))
	for i := range arcs {
		c := int64(rng.Intn(12))
		if rng.Intn(4) == 0 {
			c = Inf
		}
		arcs[i] = refArc{rng.Intn(n), rng.Intn(n), c}
	}
	return arcs
}

// TestNetworkMatchesReference builds the same random networks in both
// forms — the production one sized exactly by Grow, by an
// under-estimate, not at all, and recycled by Reset from the previous
// trial — and compares every output, the augmentations of each solve
// included.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	recycled := New(0)
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(60)
		arcs := randomArcs(rng, n)
		s, tt := rng.Intn(n), rng.Intn(n)
		for _, reserve := range []int{len(arcs), len(arcs) / 2, 0} {
			g := New(n)
			g.Grow(reserve)
			if diff := matchReference(g, n, arcs, s, tt); diff != "" {
				t.Fatalf("trial %d reserve %d: %s", trial, reserve, diff)
			}
		}
		recycled.Reset(n)
		recycled.Grow(rng.Intn(len(arcs) + 1))
		if diff := matchReference(recycled, n, arcs, s, tt); diff != "" {
			t.Fatalf("trial %d on the recycled network: %s", trial, diff)
		}
	}
}

// FuzzNetworkMatchesReference decodes a network from the input — a
// node count, s, t, then one (tail, head, capacity) triple per three
// bytes, capacity 255 meaning Inf — and holds a fresh network and one
// recycled by Reset from a larger network to the reference.
func FuzzNetworkMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 1, 3, 1, 3, 2, 0, 2, 5, 2, 3, 255, 1, 2, 1})
	f.Add([]byte{6, 0, 5, 0, 1, 16, 0, 2, 13, 1, 2, 10, 2, 1, 4, 1, 3, 12, 3, 2, 9, 2, 4, 14, 4, 3, 7, 3, 5, 20, 4, 5, 4})
	f.Add([]byte{3, 1, 2, 1, 1, 9, 1, 0, 255, 0, 2, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%48
		s, tt := int(data[1])%n, int(data[2])%n
		var arcs []refArc
		for b := data[3:]; len(b) >= 3; b = b[3:] {
			c := int64(b[2] % 16)
			if b[2] == 255 {
				c = Inf
			}
			arcs = append(arcs, refArc{int(b[0]) % n, int(b[1]) % n, c})
		}
		if diff := matchReference(New(n), n, arcs, s, tt); diff != "" {
			t.Fatalf("fresh network: %s", diff)
		}
		g := New(n + 7)
		for i := range arcs {
			g.AddArc(i%(n+7), (i*5+3)%(n+7), 1)
		}
		g.MaxFlow(0, n+6)
		g.Reset(n)
		if diff := matchReference(g, n, arcs, s, tt); diff != "" {
			t.Fatalf("recycled network: %s", diff)
		}
	})
}

// TestGrowAvoidsReallocation: a network reserved for its exact arc
// count adds them without regrowing any arc array.
func TestGrowAvoidsReallocation(t *testing.T) {
	const n, arcs = 200, 1000
	g := New(n)
	g.Grow(arcs)
	to, capacity := &g.to[:1][0], &g.cap[:1][0]
	for i := 0; i < arcs; i++ {
		g.AddArc(i%n, (i*7+1)%n, 1)
	}
	if &g.to[0] != to || &g.cap[0] != capacity {
		t.Fatalf("adding %d reserved arcs reallocated an arc array", arcs)
	}
}

// TestResetKeepsArrays: a network Reset to a smaller one reuses every
// array of the solve before, and a fresh solve on it counts its own
// augmentations only.
func TestResetKeepsArrays(t *testing.T) {
	g, s, tt := gridNetwork(8, rand.New(rand.NewSource(4)))
	g.MaxFlow(s, tt)
	arrays := []any{&g.to[:1][0], &g.cap[:1][0], &g.target[:1][0], &g.rev[:1][0], &g.res[:1][0], &g.off[:1][0], &g.level[:1][0]}
	small, s2, t2 := gridNetwork(6, rand.New(rand.NewSource(5)))
	want := small.MaxFlow(s2, t2)
	g.Reset(small.NumNodes())
	if g.Augmentations() != 0 {
		t.Fatalf("Reset left %d augmentations", g.Augmentations())
	}
	rebuilt, _, _ := gridNetwork(6, rand.New(rand.NewSource(5)))
	for a := 0; a < len(rebuilt.to); a += 2 {
		g.AddArc(int(rebuilt.to[a+1]), int(rebuilt.to[a]), rebuilt.cap[a])
	}
	if got := g.MaxFlow(s2, t2); got != want || g.Augmentations() != small.Augmentations() {
		t.Fatalf("recycled solve: flow %d in %d augmentations, fresh %d in %d", got, g.Augmentations(), want, small.Augmentations())
	}
	got := []any{&g.to[0], &g.cap[0], &g.target[0], &g.rev[0], &g.res[0], &g.off[0], &g.level[0]}
	if !slices.Equal(got, arrays) {
		t.Fatal("Reset to a smaller network reallocated an array")
	}
}

// TestAddArcAfterSolvePanics: the compiled network takes no more arcs.
func TestAddArcAfterSolvePanics(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	g.MaxFlow(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddArc after MaxFlow did not panic")
		}
	}()
	g.AddArc(1, 2, 1)
}

// TestSelfLoopIsInert: a self-loop, which the compiled adjacency lists
// (a prepending linked list drops its forward arc), changes neither
// the flow nor either minimum-cut side.
func TestSelfLoopIsInert(t *testing.T) {
	arcs := []refArc{{0, 1, 2}, {1, 1, 5}, {1, 2, 1}, {2, 2, Inf}, {0, 2, 1}}
	if diff := matchReference(New(3), 3, arcs, 0, 2); diff != "" {
		t.Fatal(diff)
	}
	g := New(3)
	g.AddArc(1, 1, 5)
	g.AddArc(0, 1, 2)
	if f := g.MaxFlow(0, 2); f != 0 {
		t.Fatalf("flow %d through a self-loop", f)
	}
	if src := g.MinCutSourceSide(0); !src[1] || src[2] {
		t.Fatalf("source side %v", src)
	}
}

// TestInt32Guard checks the node and arc-slot bound on its arithmetic,
// without allocating 2³¹ of anything.
func TestInt32Guard(t *testing.T) {
	checkInt32("nodes", math.MaxInt32)
	for _, count := range []int{math.MaxInt32 + 1, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d arc slots accepted", count)
				}
			}()
			checkInt32("arc slots", count)
		}()
	}
}

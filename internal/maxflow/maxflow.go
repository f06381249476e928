// Package maxflow implements Dinic's maximum-flow algorithm on integer-
// capacity directed networks, with minimum s–t cut extraction. It is
// the engine behind the flow-based hypergraph bipartitioner
// (internal/flowpart), which reproduces the "network flow" family of
// methods the paper's introduction cites — accurate but O(n³)-ish and
// therefore "impractical for large problem instances".
package maxflow

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// Inf is the capacity used for uncuttable arcs.
const Inf int64 = 1 << 60

// Network is a directed flow network under construction and solving.
// Nodes are 0..n-1; arcs are added with AddArc (a reverse arc of
// capacity 0 is created automatically).
//
// Arcs are staged flat: arc a runs from to[a^1] to to[a] with capacity
// cap[a]. The first solve compiles them into a forward star (CSR) in
// which node u's arcs occupy slots off[u]..off[u+1]−1 in descending
// arc id order, the order in which a linked list that prepends each new
// arc would visit them. No arc may be added after that; Reset starts a
// new network on the same arrays.
type Network struct {
	n   int
	to  []int32
	cap []int64

	compiled bool
	off      []int32 // per node: first slot; off[n] = slot count
	target   []int32 // per slot: the arc's head node
	rev      []int32 // per slot: the slot of the paired reverse arc
	res      []int64 // per slot: residual capacity

	level []int32
	iter  []int32 // per node: current-arc slot of the blocking-flow DFS
	queue []int32 // BFS queue, reused by every search
	aug   int64   // successful augmentations since the last Reset
}

// Augmentations returns the number of successful augmenting-path
// pushes performed since the network was created or last Reset. It is
// a deterministic work counter — a machine-independent proxy for flow
// effort used by the perf baseline.
func (g *Network) Augmentations() int64 { return g.aug }

// New returns a network with n nodes and no arcs.
func New(n int) *Network {
	g := &Network{}
	g.Reset(n)
	return g
}

// Reset empties g into a network with n nodes and no arcs and zeroes
// its augmentation count. It keeps every array, so a caller solving a
// sequence of networks allocates only when one outgrows the largest
// before it.
func (g *Network) Reset(n int) {
	checkInt32("nodes", n)
	g.n = n
	g.to, g.cap = g.to[:0], g.cap[:0]
	g.compiled = false
	g.aug = 0
}

// checkInt32 panics when count nodes or arc slots would overflow the
// network's int32 indices.
func checkInt32(what string, count int) {
	if count > math.MaxInt32 {
		panic(fmt.Sprintf("maxflow: %d %s overflow int32 indices", count, what))
	}
}

// Grow reserves room for arcs more AddArc calls, so that building a
// network whose arc count is known up front does not reallocate.
func (g *Network) Grow(arcs int) {
	g.to = slices.Grow(g.to, 2*arcs)
	g.cap = slices.Grow(g.cap, 2*arcs)
}

// resize returns s with length n, reallocated only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// NumNodes returns the node count.
func (g *Network) NumNodes() int { return g.n }

// AddArc adds a directed arc u→v with the given capacity and returns
// its arc id (the paired reverse arc is id^1). It panics once g has
// been solved.
func (g *Network) AddArc(u, v int, capacity int64) int {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %d", capacity))
	}
	if g.compiled {
		panic("maxflow: AddArc after solving; Reset starts a new network")
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: arc %d→%d outside %d nodes", u, v, g.n))
	}
	id := len(g.to)
	checkInt32("arc slots", id+2)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	return id
}

// compile lays the staged arcs out as the forward star by counting
// sort. Arc pairs are placed from the highest id down, so each node's
// slots list its arcs in descending id order, and a pair's two slots
// are known together, which gives rev without a second pass.
func (g *Network) compile() {
	if g.compiled {
		return
	}
	g.compiled = true
	n, m := g.n, len(g.to)
	g.off = resize(g.off, n+1)
	clear(g.off)
	for a := 0; a < m; a++ {
		g.off[g.to[a^1]+1]++ // arc a's tail
	}
	for u := 0; u < n; u++ {
		g.off[u+1] += g.off[u]
	}
	g.target, g.rev, g.res = resize(g.target, m), resize(g.rev, m), resize(g.res, m)
	g.level, g.iter = resize(g.level, n), resize(g.iter, n)
	g.queue = resize(g.queue, n)[:0]
	next := g.iter // fill cursors; iter is re-armed by every phase
	copy(next, g.off[:n])
	for a := m - 2; a >= 0; a -= 2 {
		// Arc a runs u→v and arc a+1 v→u; a+1 is placed first.
		u, v := g.to[a+1], g.to[a]
		back := next[v]
		next[v]++
		fwd := next[u]
		next[u]++
		g.target[back], g.rev[back], g.res[back] = u, fwd, g.cap[a+1]
		g.target[fwd], g.rev[fwd], g.res[fwd] = v, back, g.cap[a]
	}
}

// bfs builds the level graph and reports whether t is reachable. It
// stops as soon as t is labeled: every node labeled after that sits at
// t's level or beyond, where no shortest augmenting path passes, so the
// blocking-flow DFS finds the same paths without them.
func (g *Network) bfs(s, t int32) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	queue := append(g.queue[:0], s)
	level[s] = 0
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		next := level[u] + 1
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.target[i]
			if g.res[i] > 0 && level[v] == -1 {
				level[v] = next
				if v == t {
					return true
				}
				queue = append(queue, v)
			}
		}
	}
	return false
}

// dfs sends blocking flow along the level graph.
func (g *Network) dfs(u, t int32, f int64) int64 {
	if u == t {
		return f
	}
	for end := g.off[u+1]; g.iter[u] < end; g.iter[u]++ {
		i := g.iter[u]
		v := g.target[i]
		if g.res[i] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		got := g.dfs(v, t, min(f, g.res[i]))
		if got > 0 {
			g.res[i] -= got
			g.res[g.rev[i]] += got
			return got
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow, mutating residual capacities.
func (g *Network) MaxFlow(s, t int) int64 {
	total, _ := g.MaxFlowCtx(context.Background(), s, t)
	return total
}

// MaxFlowCtx is MaxFlow with cancellation: the context is polled
// between augmenting-path searches (each augmentation is one blocking-
// flow DFS, the natural preemption grain of Dinic's algorithm), so a
// solve under a deadline returns within one augmentation of it. On
// expiry it returns the flow pushed so far together with ctx's error;
// that partial flow does NOT certify a minimum cut, so callers must
// treat the error as "no result", not "smaller result".
func (g *Network) MaxFlowCtx(ctx context.Context, s, t int) (int64, error) {
	if s == t {
		return 0, nil
	}
	g.compile()
	var total int64
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		if !g.bfs(int32(s), int32(t)) {
			return total, nil
		}
		copy(g.iter, g.off[:g.n])
		for {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			f := g.dfs(int32(s), int32(t), Inf)
			if f == 0 {
				break
			}
			g.aug++
			total += f
		}
	}
}

// MinCutSourceSide returns, after MaxFlow, the set of nodes reachable
// from s in the residual network — the source side of a minimum cut.
func (g *Network) MinCutSourceSide(s int) []bool {
	return g.reach(s, false)
}

// MinCutSinkSide returns, after MaxFlow, the set of nodes that can
// reach t in the residual network — the sink side of a (generally
// different) minimum cut. Its complement is the largest source side of
// any minimum cut, where MinCutSourceSide yields the smallest; a caller
// choosing between the two orientations picks whichever balances its
// partition better at the same cut value.
func (g *Network) MinCutSinkSide(t int) []bool {
	return g.reach(t, true)
}

// reach returns the nodes reachable from x through arcs with residual
// capacity or, with backward set, the nodes that reach x through such
// arcs: the target v of u's slot i reaches u when the reverse slot
// rev[i], the arc v→u, has residual capacity.
func (g *Network) reach(x int, backward bool) []bool {
	g.compile()
	side := make([]bool, g.n)
	queue := append(g.queue[:0], int32(x))
	side[x] = true
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v, slot := g.target[i], i
			if backward {
				slot = g.rev[i]
			}
			if g.res[slot] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

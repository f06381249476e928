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
)

// Inf is the capacity used for uncuttable arcs.
const Inf int64 = 1 << 60

// Network is a directed flow network under construction and solving.
// Nodes are 0..n-1; arcs are added with AddArc (a reverse arc of
// capacity 0 is created automatically).
type Network struct {
	head  []int // per node: first arc index, -1 end
	next  []int // per arc
	to    []int
	cap   []int64
	level []int
	iter  []int
	queue []int // BFS queue, reused by every search
	aug   int64 // successful augmentations across all solves
}

// Augmentations returns the number of successful augmenting-path
// pushes performed so far. It is a deterministic work counter — a
// machine-independent proxy for flow effort used by the perf baseline.
func (g *Network) Augmentations() int64 { return g.aug }

// New returns a network with n nodes and no arcs.
func New(n int) *Network {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &Network{head: h}
}

// Grow reserves room for arcs more AddArc calls, so that building a
// network whose arc count is known up front does not reallocate.
func (g *Network) Grow(arcs int) {
	g.to = reserve(g.to, 2*arcs)
	g.cap = reserve(g.cap, 2*arcs)
	g.next = reserve(g.next, 2*arcs)
}

// reserve returns s with room for n more elements, reallocated to
// exactly len(s)+n when it lacks them.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]T, len(s), len(s)+n)
	copy(t, s)
	return t
}

// NumNodes returns the node count.
func (g *Network) NumNodes() int { return len(g.head) }

// AddArc adds a directed arc u→v with the given capacity and returns
// its arc id (the paired reverse arc is id^1).
func (g *Network) AddArc(u, v int, capacity int64) int {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %d", capacity))
	}
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u] = id
	g.head[v] = id + 1
	return id
}

// bfs builds the level graph; returns false when t is unreachable.
func (g *Network) bfs(s, t int) bool {
	n := g.NumNodes()
	if g.level == nil {
		g.level = make([]int, n)
	}
	for i := range g.level {
		g.level[i] = -1
	}
	queue := g.startQueue(s)
	g.level[s] = 0
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

// startQueue returns the network's BFS queue holding only s. A search
// enqueues each node at most once, so the queue never outgrows its
// first allocation.
func (g *Network) startQueue(s int) []int {
	if g.queue == nil {
		g.queue = make([]int, 0, g.NumNodes())
	}
	return append(g.queue[:0], s)
}

// dfs sends blocking flow along the level graph.
func (g *Network) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; g.iter[u] != -1; g.iter[u] = g.next[g.iter[u]] {
		a := g.iter[u]
		v := g.to[a]
		if g.cap[a] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		d := f
		if g.cap[a] < d {
			d = g.cap[a]
		}
		got := g.dfs(v, t, d)
		if got > 0 {
			g.cap[a] -= got
			g.cap[a^1] += got
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
	if g.iter == nil {
		g.iter = make([]int, g.NumNodes())
	}
	var total int64
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		if !g.bfs(s, t) {
			return total, nil
		}
		copy(g.iter, g.head)
		for {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			f := g.dfs(s, t, Inf)
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
	side := make([]bool, g.NumNodes())
	queue := g.startQueue(s)
	side[s] = true
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if g.cap[a] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

// MinCutSinkSide returns, after MaxFlow, the set of nodes that can
// reach t in the residual network — the sink side of a (generally
// different) minimum cut. Its complement is the largest source side of
// any minimum cut, where MinCutSourceSide yields the smallest; a caller
// choosing between the two orientations picks whichever balances its
// partition better at the same cut value.
func (g *Network) MinCutSinkSide(t int) []bool {
	side := make([]bool, g.NumNodes())
	queue := g.startQueue(t)
	side[t] = true
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		// v reaches u through arc a^1 (the pair of u's arc a to v) when
		// that reverse arc still has residual capacity.
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if g.cap[a^1] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

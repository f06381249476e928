package core

import (
	"math/rand"
	"slices"
	"sync"

	"fasthgp/internal/engine"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
)

// seeder picks the double-BFS endpoints of one call's starts. Without
// fixed vertices, or when a side pins no included net, every start
// draws the paper's random longest BFS path, from the probe. Otherwise
// u is drawn among nets touching a Left-fixed module and v among nets
// touching a Right-fixed one, so the expanding sets grow outward from
// the pinned regions and the completed partition starts near the
// contract.
type seeder struct {
	g             *graph.Graph
	probe         *probe // nil when fixed vertices seed the starts
	lefts, rights []int  // G-vertices of nets touching Left- and Right-fixed modules
}

// newSeeder computes what opts.Constraint's fixed vertices make of the
// call's starts, once for all of them.
func newSeeder(h *hypergraph.Hypergraph, ig *intersect.Result, opts Options) *seeder {
	s := &seeder{g: ig.G}
	if c := opts.Constraint; c.HasFixed() {
		inL := make([]bool, ig.G.NumVertices())
		inR := make([]bool, ig.G.NumVertices())
		for m := 0; m < h.NumVertices(); m++ {
			f := c.Fixed(m)
			if f < 0 {
				continue
			}
			for _, e := range h.VertexEdges(m) {
				if gi := ig.GVertexOf[e]; gi >= 0 {
					if f == 0 {
						inL[gi] = true
					} else {
						inR[gi] = true
					}
				}
			}
		}
		for g := range inL {
			if inL[g] {
				s.lefts = append(s.lefts, g)
			}
			if inR[g] {
				s.rights = append(s.rights, g)
			}
		}
	}
	if len(s.lefts) == 0 || len(s.rights) == 0 {
		s.probe = newProbe(ig.G, opts.Seed, engine.Normalize(opts.Starts))
	}
	return s
}

// path returns start i's endpoints (u, v) and their BFS distance; rng is
// the start's own stream, engine.StartRNG(opts.Seed, i). Endpoints drawn
// among the fixed vertices' nets come with depth −1: only a start that
// solves the pair needs it, and depth then sweeps for it.
func (s *seeder) path(i int, rng *rand.Rand) (u, v, depth int) {
	if s.probe != nil {
		return s.probe.path(i)
	}
	u = s.lefts[rng.Intn(len(s.lefts))]
	v = s.rights[rng.Intn(len(s.rights))]
	if v == u {
		// The drawn net pins modules of both sides; find any distinct
		// endpoint, else give up on fixed seeding for this start.
		for _, g := range s.rights {
			if g != u {
				v = g
				break
			}
		}
		if v == u {
			for _, g := range s.lefts {
				if g != v {
					u = g
					break
				}
			}
		}
		if v == u {
			return s.g.LongestBFSPath(rng)
		}
	}
	return u, v, -1
}

// depth returns depth as path reported it for (u, v), sweeping for the
// BFS distance when path left it −1.
func (s *seeder) depth(u, v, depth int) int {
	if depth < 0 {
		depth = max(s.g.Distance(u, v), 0)
	}
	return depth
}

// probeBlock is the number of starts one probe block draws: one bit per
// start in graph.Eccentricities.
const probeBlock = 64

// probe draws every start's random longest BFS path, start i's being
// exactly graph.LongestBFSPath(engine.StartRNG(seed, i)), in blocks of
// probeBlock start indices. The first start that needs a block's paths
// probes the whole block, once: it draws each start's vertex,
// batch-sweeps the distinct ones no block has swept yet, then likewise
// their far vertices. Each BFS source is thus swept once per call, and
// a call sweeps every source of each block it touched.
type probe struct {
	g      *graph.Graph
	seed   int64
	starts int
	blocks []probeBlockPaths

	mu    sync.Mutex
	swept map[int][2]int // source → Eccentricity (far, dist)
}

// probeBlockPaths holds one block's paths once its probe has run.
type probeBlockPaths struct {
	once  sync.Once
	paths [][3]int // (u, v, depth) of each start in the block
}

func newProbe(g *graph.Graph, seed int64, starts int) *probe {
	return &probe{
		g:      g,
		seed:   seed,
		starts: starts,
		blocks: make([]probeBlockPaths, (starts+probeBlock-1)/probeBlock),
		swept:  make(map[int][2]int),
	}
}

// path returns start i's random longest BFS path, probing its block
// first if no start has yet.
func (p *probe) path(i int) (u, v, depth int) {
	b := &p.blocks[i/probeBlock]
	b.once.Do(func() { b.paths = p.draw(i / probeBlock * probeBlock) })
	r := b.paths[i%probeBlock]
	return r[0], r[1], r[2]
}

// draw probes the paths of the block whose first start is lo.
func (p *probe) draw(lo int) [][3]int {
	srcs := make([]int, min(probeBlock, p.starts-lo))
	for j := range srcs {
		srcs[j] = engine.StartRNG(p.seed, lo+j).Intn(p.g.NumVertices())
	}
	for j, r := range p.sweep(srcs) {
		srcs[j] = r[0] // the far vertex starts the longest path
	}
	paths := make([][3]int, len(srcs))
	for j, r := range p.sweep(srcs) {
		paths[j] = [3]int{srcs[j], r[0], r[1]}
	}
	return paths
}

// sweep returns Eccentricity's (far, dist) for each of srcs, sweeping
// the distinct ones not yet swept in one batch. Another block's probe
// may sweep one of them meanwhile; both store the same answer.
func (p *probe) sweep(srcs []int) [][2]int {
	var todo []int
	p.mu.Lock()
	for _, s := range srcs {
		if _, ok := p.swept[s]; !ok {
			todo = append(todo, s)
		}
	}
	p.mu.Unlock()
	slices.Sort(todo)
	todo = slices.Compact(todo)
	far, dist := make([]int, len(todo)), make([]int, len(todo))
	p.g.Eccentricities(todo, far, dist)

	out := make([][2]int, len(srcs))
	p.mu.Lock()
	defer p.mu.Unlock()
	for j, s := range todo {
		p.swept[s] = [2]int{far[j], dist[j]}
	}
	for j, s := range srcs {
		out[j] = p.swept[s]
	}
	return out
}

// sweeps returns the number of distinct sources the call swept.
func (p *probe) sweeps() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.swept)
}

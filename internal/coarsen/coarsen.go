// Package coarsen implements hypergraph coarsening by heavy-edge
// matching — the contraction half of the multilevel V-cycle. One
// Contract call matches each vertex with the unmatched neighbour it
// shares the most net connectivity with (rating Σ w(e)/(|e|−1) over
// shared nets, via matching.HeavyEdge), then contracts matched pairs:
// vertex weights add, nets map their pins through the contraction,
// nets reduced to a single pin disappear, and duplicate nets merge
// with their weights added — so the weighted cut of any coarse
// bipartition equals the weighted cut of its projection to the fine
// hypergraph. BuildHierarchy stacks Contract calls into the full
// contraction hierarchy the V-cycle uncoarsens through.
package coarsen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/matching"
	"fasthgp/internal/partition"
)

// Result is one coarsening level.
type Result struct {
	// Coarse is the contracted hypergraph.
	Coarse *hypergraph.Hypergraph
	// Map sends each fine vertex to its coarse vertex.
	Map []int
	// Fixed is the coarse-level fixed-side assignment (nil when the
	// step ran without one).
	Fixed []int8
}

// LevelStats summarizes one hierarchy level for tuning and reporting.
type LevelStats struct {
	Vertices int
	Nets     int
	Pins     int
}

// Stats returns the coarse level's size summary.
func (r *Result) Stats() LevelStats {
	return LevelStats{
		Vertices: r.Coarse.NumVertices(),
		Nets:     r.Coarse.NumEdges(),
		Pins:     r.Coarse.NumPins(),
	}
}

// maxLevels bounds the hierarchy depth.
const maxLevels = 30

// Options configures Contract and BuildHierarchy. The zero value
// contracts without pins or a weight cap.
type Options struct {
	// MinVertices stops BuildHierarchy once a level has at most this
	// many vertices (minimum 2).
	MinVertices int
	// Fixed pins fine vertices to sides (partition.FreeVertex = free).
	// Vertices pinned to different sides are never contracted together,
	// and every Result carries the propagated coarse assignment.
	Fixed []int8
	// MaxClusterWeight refuses matches whose combined vertex weight
	// exceeds it (0 = unbounded). Coarsening can only ever *merge*
	// weights, so capping the merge is what keeps an ε-balance
	// constraint satisfiable at every level: a single cluster heavier
	// than the side bound could never be placed.
	MaxClusterWeight int64
}

// Contract performs one level of heavy-edge matching and contraction
// under opts (MinVertices is ignored here; it belongs to
// BuildHierarchy). The returned coarse hypergraph has at least half as
// many vertices when any match exists; when nothing can be matched
// (e.g. an edgeless hypergraph) the contraction is the identity.
func Contract(h *hypergraph.Hypergraph, rng *rand.Rand, opts Options) *Result {
	n := h.NumVertices()
	mate := matching.HeavyEdge(h, rng, matching.HeavyEdgeOptions{
		Fixed:         opts.Fixed,
		MaxPairWeight: opts.MaxClusterWeight,
	})

	// Assign coarse ids: matched pairs share one id.
	res := &Result{Map: make([]int, n)}
	next := 0
	for v := 0; v < n; v++ {
		if mate[v] != matching.Unmatched && mate[v] < v {
			res.Map[v] = res.Map[mate[v]]
			continue
		}
		res.Map[v] = next
		next++
	}
	res.Coarse = ContractMap(h, res.Map, next)
	if opts.Fixed != nil {
		// A coarse vertex inherits the pinned side of its fine members
		// (at most one distinct side by the matching rule above).
		cf := make([]int8, next)
		for i := range cf {
			cf[i] = partition.FreeVertex
		}
		for v := 0; v < n; v++ {
			if v < len(opts.Fixed) && opts.Fixed[v] >= 0 {
				cf[res.Map[v]] = opts.Fixed[v]
			}
		}
		res.Fixed = cf
	}
	return res
}

// ContractMap contracts h by the vertex map m, which sends each vertex
// of h to one of k coarse vertices: vertex weights add, nets map their
// pins through m, nets reduced to a single pin disappear, and duplicate
// nets merge with their weights added. Coarse nets keep the order of
// their first fine net, with pins ascending.
func ContractMap(h *hypergraph.Hypergraph, m []int, k int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(k)
	weights := make([]int64, k)
	for v := 0; v < h.NumVertices(); v++ {
		weights[m[v]] += h.VertexWeight(v)
	}
	for cv, w := range weights {
		b.SetVertexWeight(cv, w)
	}
	// Contract nets, dropping singletons and merging duplicates with
	// summed weights. Kept nets' sorted coarse pins live in one flat
	// list; duplicates are found through an open-addressing index of
	// kept-net ids keyed by a hash of the pin set, confirmed by an
	// exact pin comparison.
	nets := h.NumEdges()
	idx := newNetIndex(nets)
	pins := make([]int, 0, h.NumPins())
	starts := make([]int, 1, nets+1)      // kept net i's pins are pins[starts[i]:starts[i+1]]
	edgeWeights := make([]int64, 0, nets) // kept net → merged weight
	hashes := make([]uint64, 0, nets)     // kept net → pinHash of its pins
	for e := 0; e < nets; e++ {
		base := len(pins)
		for _, v := range h.EdgePins(e) {
			pins = append(pins, m[v])
		}
		out := pins[base:]
		sort.Ints(out)
		out = slices.Compact(out)
		pins = pins[:base+len(out)]
		if len(out) < 2 {
			pins = pins[:base]
			continue
		}
		hash := pinHash(out)
		slot := idx.find(hash, func(id int) bool {
			return hashes[id] == hash && slices.Equal(pins[starts[id]:starts[id+1]], out)
		})
		if id := idx.slots[slot] - 1; id >= 0 {
			edgeWeights[id] += h.EdgeWeight(e)
			pins = pins[:base]
			continue
		}
		idx.slots[slot] = int32(len(edgeWeights) + 1)
		starts = append(starts, len(pins))
		edgeWeights = append(edgeWeights, h.EdgeWeight(e))
		hashes = append(hashes, hash)
	}
	b.Grow(len(edgeWeights), len(pins))
	for id, w := range edgeWeights {
		b.AddEdge(pins[starts[id]:starts[id+1]]...)
		b.SetEdgeWeight(id, w)
	}
	coarse, err := b.Build()
	if err != nil {
		panic("coarsen: contraction produced invalid hypergraph: " + err.Error())
	}
	return coarse
}

// netIndex is an open-addressing hash table of kept-net ids with
// linear probing, sized so its load stays at most one half.
type netIndex struct {
	// slots hold id+1 of a kept net, 0 for an empty slot.
	slots []int32
	mask  uint64
}

// newNetIndex returns an empty index with room for nets ids.
func newNetIndex(nets int) *netIndex {
	if nets >= math.MaxInt32 {
		panic(fmt.Sprintf("coarsen: %d nets overflow the contraction index", nets))
	}
	size := 2
	for size < 2*nets {
		size *= 2
	}
	return &netIndex{slots: make([]int32, size), mask: uint64(size - 1)}
}

// find returns the slot holding the net with the given hash for which
// same reports true, or else the empty slot where such a net belongs.
func (x *netIndex) find(hash uint64, same func(id int) bool) int {
	for i := hash & x.mask; ; i = (i + 1) & x.mask {
		if id := x.slots[i] - 1; id < 0 || same(int(id)) {
			return int(i)
		}
	}
}

// pinHash is FNV-1a over the pin ids; collisions are resolved by an
// exact pin comparison, so quality only affects probe lengths.
func pinHash(pins []int) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pins {
		x := uint64(p)
		for i := 0; i < 4; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// BuildHierarchy coarsens h under opts until at most opts.MinVertices
// vertices remain, the contraction stops making progress (shrink
// factor > 0.95), or maxLevels levels were produced. Levels are
// ordered fine→coarse; each level's Fixed feeds the next contraction,
// so every level's Result.Fixed pins its coarse vertices.
func BuildHierarchy(h *hypergraph.Hypergraph, rng *rand.Rand, opts Options) []*Result {
	if opts.MinVertices < 2 {
		opts.MinVertices = 2
	}
	var levels []*Result
	cur := h
	fixed := opts.Fixed
	for len(levels) < maxLevels && cur.NumVertices() > opts.MinVertices {
		stepOpts := opts
		stepOpts.Fixed = fixed
		step := Contract(cur, rng, stepOpts)
		if float64(step.Coarse.NumVertices()) > 0.95*float64(cur.NumVertices()) {
			break
		}
		levels = append(levels, step)
		cur = step.Coarse
		fixed = step.Fixed
	}
	return levels
}

// Project lifts a partition of the coarse hypergraph to the fine one:
// every fine vertex takes its coarse vertex's side.
func Project(fineN int, m []int, coarse *partition.Bipartition) *partition.Bipartition {
	p := partition.New(fineN)
	for v := 0; v < fineN; v++ {
		p.Assign(v, coarse.Side(m[v]))
	}
	return p
}

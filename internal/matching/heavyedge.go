// Heavy-edge matching — the rating half of multilevel coarsening. The
// map-based scorer that used to live in internal/coarsen allocated a
// hash map per visited vertex; at the million-pin scale the V-cycle
// targets, that map dominated the coarsening phase. This version keeps
// the exact same greedy (max rating, lowest index on ties, random
// visitation order from the caller's RNG) but accumulates ratings in a
// dense float64 array with a touched-list reset, so one matching pass
// is a single allocation-free sweep over the pin structure.
package matching

import (
	"math/rand"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// HeavyEdgeOptions configures HeavyEdge.
type HeavyEdgeOptions struct {
	// Fixed pins vertices to sides (partition.FreeVertex = free). Two
	// vertices pinned to different sides are never matched, so every
	// contracted cluster has a well-defined fixed side. A nil or short
	// slice leaves the remaining vertices free.
	Fixed []int8
	// MaxPairWeight caps the combined vertex weight of a matched pair:
	// w(u)+w(v) > MaxPairWeight is never matched (0 = unbounded). This
	// is how coarsening keeps the ε-balance contract satisfiable — a
	// cluster heavier than the bound could never sit inside a side.
	MaxPairWeight int64
}

// maxRatedNet is the largest net that rating reads. A net of |e| pins
// adds at most w(e)/(|e|−1) to any pair's rating, so leaving out the
// nets above the cap changes little, while reading them costs Σ|e|²
// per level: one net over every module made coarsening quadratic. With
// the cap, a level rates at most maxRatedNet·pins pins.
const maxRatedNet = 64

// HeavyEdge computes a greedy heavy-edge matching of h: vertices are
// visited in rng.Perm order, and each unmatched vertex v is matched to
// the unmatched neighbour u maximizing the rating Σ w(e)/(|e|−1) over
// shared nets e of 2..maxRatedNet pins (ties broken toward the lowest
// index). The result is mate[v] = partner or Unmatched, symmetric.
//
// The greedy is deterministic given rng's state and, with a zero
// options struct, reproduces the historical map-based matching
// decisions exactly on hypergraphs without nets above the cap.
func HeavyEdge(h *hypergraph.Hypergraph, rng *rand.Rand, opts HeavyEdgeOptions) []int {
	mate, _ := heavyEdge(h, rng, opts)
	return mate
}

// heavyEdge is HeavyEdge that also returns the number of pins it read
// while rating, a deterministic work counter.
func heavyEdge(h *hypergraph.Hypergraph, rng *rand.Rand, opts HeavyEdgeOptions) (mate []int, rated int) {
	n := h.NumVertices()
	side := func(v int) int8 {
		if v < len(opts.Fixed) {
			return opts.Fixed[v]
		}
		return partition.FreeVertex
	}
	mate = make([]int, n)
	for i := range mate {
		mate[i] = Unmatched
	}
	score := make([]float64, n)
	touched := make([]int, 0, 64)
	order := rng.Perm(n)
	for _, v := range order {
		if mate[v] != Unmatched {
			continue
		}
		sv := side(v)
		wv := h.VertexWeight(v)
		touched = touched[:0]
		for _, e := range h.VertexEdges(v) {
			size := h.EdgeSize(e)
			if size < 2 || size > maxRatedNet {
				continue
			}
			rated += size
			w := float64(h.EdgeWeight(e)) / float64(size-1)
			for _, u := range h.EdgePins(e) {
				if u == v || mate[u] != Unmatched {
					continue
				}
				if su := side(u); sv >= 0 && su >= 0 && sv != su {
					continue // opposite pins must stay separable
				}
				if opts.MaxPairWeight > 0 && wv+h.VertexWeight(u) > opts.MaxPairWeight {
					continue
				}
				if score[u] == 0 {
					touched = append(touched, u)
				}
				score[u] += w
			}
		}
		best, bestScore := Unmatched, 0.0
		for _, u := range touched {
			if s := score[u]; s > bestScore || (s == bestScore && best != Unmatched && u < best) {
				best, bestScore = u, s
			}
		}
		for _, u := range touched {
			score[u] = 0
		}
		if best != Unmatched {
			mate[v] = best
			mate[best] = v
		}
	}
	return mate, rated
}

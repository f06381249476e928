// Package cluster implements bottom-up connectivity clustering of a
// netlist — the preprocessing step of the "clustering placement"
// methodology that the paper's opening sentence places min-cut
// bisection inside. Unlike internal/coarsen (which pairs vertices for
// a multilevel hierarchy), clustering merges many modules into
// capacity-bounded groups and reports the absorption metric: the
// fraction of pin connectivity captured inside clusters, which is what
// a good logical clustering maximizes.
package cluster

import (
	"fmt"
	"math/rand"

	"fasthgp/internal/coarsen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// passes is the number of merge sweeps.
const passes = 3

// Options configures Cluster.
type Options struct {
	// MaxClusterWeight caps the total module weight of a cluster
	// (default: total/16, at least the heaviest module).
	MaxClusterWeight int64
	// Seed orders the sweeps deterministically.
	Seed int64
}

// Result describes a clustering.
type Result struct {
	// ClusterOf maps each module to its cluster id (0..NumClusters-1).
	ClusterOf []int
	// NumClusters is the number of clusters.
	NumClusters int
	// H is the clustered hypergraph (one vertex per cluster; nets
	// contracted, singleton nets dropped, duplicates merged by weight).
	H *hypergraph.Hypergraph
	// Absorption is Σ_e Σ_c (p_c(e) − 1) · w(e) / (|e| − 1) normalized
	// by total net weight: 1 means every net fully inside one cluster,
	// 0 means no two pins of any net share a cluster.
	Absorption float64
}

// Cluster groups the modules of h.
func Cluster(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	n := h.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty hypergraph")
	}
	cap := opts.MaxClusterWeight
	if cap <= 0 {
		cap = h.TotalVertexWeight() / 16
	}
	for v := 0; v < n; v++ {
		if h.VertexWeight(v) > cap {
			cap = h.VertexWeight(v)
		}
	}
	if cap < 1 {
		cap = 1
	}

	parent := make([]int, n)
	weight := make([]int64, n)
	for v := 0; v < n; v++ {
		parent[v] = v
		weight[v] = h.VertexWeight(v)
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	score := make(map[int]float64, 16)
	for pass := 0; pass < passes; pass++ {
		merged := false
		for _, v := range rng.Perm(n) {
			rv := find(v)
			clear(score)
			for _, e := range h.VertexEdges(v) {
				size := h.EdgeSize(e)
				if size < 2 {
					continue
				}
				w := float64(h.EdgeWeight(e)) / float64(size-1)
				for _, u := range h.EdgePins(e) {
					ru := find(u)
					if ru != rv {
						score[ru] += w
					}
				}
			}
			best, bestScore := -1, 0.0
			for ru, s := range score {
				if weight[rv]+weight[ru] > cap {
					continue
				}
				if s > bestScore || (s == bestScore && best != -1 && ru < best) {
					best, bestScore = ru, s
				}
			}
			if best != -1 {
				parent[best] = rv
				weight[rv] += weight[best]
				merged = true
			}
		}
		if !merged {
			break
		}
	}

	res := &Result{ClusterOf: make([]int, n)}
	label := map[int]int{}
	for v := 0; v < n; v++ {
		r := find(v)
		id, ok := label[r]
		if !ok {
			id = len(label)
			label[r] = id
		}
		res.ClusterOf[v] = id
	}
	res.NumClusters = len(label)
	res.H = coarsen.ContractMap(h, res.ClusterOf, res.NumClusters)
	res.Absorption = Absorption(h, res.ClusterOf)
	return res, nil
}

// Absorption computes the absorbed connectivity fraction of an
// arbitrary clustering labeling.
func Absorption(h *hypergraph.Hypergraph, clusterOf []int) float64 {
	var absorbed, total float64
	count := map[int]int{}
	for e := 0; e < h.NumEdges(); e++ {
		size := h.EdgeSize(e)
		if size < 2 {
			continue
		}
		w := float64(h.EdgeWeight(e))
		total += w
		clear(count)
		for _, v := range h.EdgePins(e) {
			count[clusterOf[v]]++
		}
		inside := 0
		for _, c := range count {
			inside += c - 1
		}
		absorbed += w * float64(inside) / float64(size-1)
	}
	if total == 0 {
		return 0
	}
	return absorbed / total
}

// Project lifts a partition of the clustered hypergraph back to the
// modules.
func (r *Result) Project(p *partition.Bipartition) *partition.Bipartition {
	return coarsen.Project(len(r.ClusterOf), r.ClusterOf, p)
}

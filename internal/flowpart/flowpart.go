// Package flowpart implements flow-based hypergraph bipartitioning —
// the "network flow [7]" family the paper positions Algorithm I
// against: it yields exact minimum s–t cuts of the netlist, but its
// cost grows fast enough that the paper deems such methods
// "impractical for large problem instances" (reproduced by
// BenchmarkScalingFlow).
//
// The standard net model makes a hyperedge cost exactly one cut unit:
// each net e becomes a pair of nodes e₁ → e₂ with an arc of capacity
// w(e); every pin v gets uncuttable arcs v → e₁ and e₂ → v. A minimum
// s–t cut of this network then equals the minimum-weight set of nets
// separating module s from module t. Minimizing over several
// seed-module pairs approximates the global minimum net cut.
package flowpart

import (
	"context"
	"fmt"
	"math/rand"

	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/maxflow"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// Options configures Bisect.
type Options struct {
	// SeedPairs is the number of (s, t) module pairs tried (default 5).
	// Each pair is an independent start of the multi-start engine.
	SeedPairs int
	// Seed makes the run deterministic; each seed pair draws from its
	// own stream, so results are independent of Parallelism.
	Seed int64
	// Parallelism is the number of workers solving seed pairs
	// concurrently; values < 1 mean GOMAXPROCS. Wall time only, never
	// the result.
	Parallelism int
	// Constraint is the unified balance contract: Left-fixed vertices
	// are welded to the source and Right-fixed ones to the sink with
	// uncuttable arcs (so the min cut can never separate a fixed vertex
	// from its side), seed pairs are drawn fixed-compatibly, and the
	// resulting cut is repaired onto the ε bound. The zero value
	// preserves historical behavior exactly.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every solved pair into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

// Result is the flow-partition outcome.
type Result struct {
	// Partition is the best bipartition found.
	Partition *partition.Bipartition
	// CutSize is its (unweighted) cutsize.
	CutSize int
	// FlowValue is the weighted min-cut value certified by the flow.
	FlowValue int64
	// Engine reports the multi-start execution (pairs run, winning
	// pair, per-pair cuts, wall/CPU time).
	Engine engine.Stats
}

// MinNetCut computes an exact minimum-weight net cut separating
// modules s and t, returning the partition (s-side Left) and the cut
// weight.
func MinNetCut(h *hypergraph.Hypergraph, s, t int) (*partition.Bipartition, int64, error) {
	return MinNetCutCtx(context.Background(), h, s, t)
}

// MinNetCutCtx is MinNetCut with cancellation: the context is polled
// between flow augmentations, so a solve under a deadline stops within
// one augmentation of it. An exact cut interrupted mid-solve certifies
// nothing, so on expiry the context's error is returned and the
// partial partition is discarded.
func MinNetCutCtx(ctx context.Context, h *hypergraph.Hypergraph, s, t int) (*partition.Bipartition, int64, error) {
	return minNetCutFixed(ctx, h, s, t, partition.Constraint{})
}

// minNetCutFixed is the fixed-aware net-cut solve: besides the standard
// net model, every Left-fixed vertex is welded to s and every
// Right-fixed vertex to t with uncuttable arcs, so the minimum cut
// keeps each pinned module on its side.
func minNetCutFixed(ctx context.Context, h *hypergraph.Hypergraph, s, t int, c partition.Constraint) (*partition.Bipartition, int64, error) {
	n := h.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n || s == t {
		return nil, 0, fmt.Errorf("flowpart: bad seed pair (%d, %d)", s, t)
	}
	// Node layout: modules 0..n-1, then e₁ = n + 2e, e₂ = n + 2e + 1.
	g := maxflow.New(n + 2*h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		e1 := n + 2*e
		e2 := e1 + 1
		g.AddArc(e1, e2, h.EdgeWeight(e))
		for _, v := range h.EdgePins(e) {
			g.AddArc(v, e1, maxflow.Inf)
			g.AddArc(e2, v, maxflow.Inf)
		}
	}
	for v := 0; v < n; v++ {
		switch f := c.Fixed(v); {
		case f == 0 && v != s:
			g.AddArc(s, v, maxflow.Inf)
		case f > 0 && v != t:
			g.AddArc(v, t, maxflow.Inf)
		}
	}
	value, err := g.MaxFlowCtx(ctx, s, t)
	if err != nil {
		return nil, 0, err
	}
	side := g.MinCutSourceSide(s)
	p := partition.New(n)
	for v := 0; v < n; v++ {
		if side[v] {
			p.Assign(v, partition.Left)
		} else {
			p.Assign(v, partition.Right)
		}
	}
	return p, value, nil
}

// drawSeedPair picks the (s, t) modules for one start. Unconstrained,
// it reproduces the historical draw sequence exactly. With fixed
// vertices, s is drawn among Left-fixed modules and t among Right-fixed
// ones when those sets are nonempty, so the welded arcs never collapse
// the pair onto one side.
func drawSeedPair(n int, rng *rand.Rand, c partition.Constraint) (int, int) {
	if !c.HasFixed() {
		s := rng.Intn(n)
		t := rng.Intn(n)
		for t == s {
			t = rng.Intn(n)
		}
		return s, t
	}
	var lefts, rights []int
	for v := 0; v < n; v++ {
		switch f := c.Fixed(v); {
		case f == 0:
			lefts = append(lefts, v)
		case f > 0:
			rights = append(rights, v)
		}
	}
	s := -1
	if len(lefts) > 0 {
		s = lefts[rng.Intn(len(lefts))]
	}
	t := -1
	if len(rights) > 0 {
		t = rights[rng.Intn(len(rights))]
	}
	for s == -1 || s == t {
		s = rng.Intn(n)
		if c.Fixed(s) > 0 {
			s = -1 // can't source from a Right-fixed module
			continue
		}
	}
	for t == -1 || t == s {
		t = rng.Intn(n)
		if c.Fixed(t) == 0 {
			t = -1 // can't sink at a Left-fixed module
		}
	}
	return s, t
}

// Bisect partitions h by minimizing the net cut over several random
// seed pairs (favoring far-apart modules would be a refinement; random
// pairs already certify the paper's complexity point). The result is
// the best valid bipartition found; balance is whatever the minimum
// cut dictates, as with the other unconstrained methods.
func Bisect(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BisectCtx(context.Background(), h, opts)
}

// BisectCtx is Bisect with cancellation: seed pairs fan out over
// opts.Parallelism workers, the context is polled between flow
// augmentations inside each solve, and the best cut among the pairs
// fully solved before ctx expired is returned. The first pair runs
// detached from the context (one exact solve is the price of the
// library-wide "a cancelled run still returns a result" contract);
// every later pair abandons its solve within one augmentation of the
// deadline instead of blocking until its flow completes.
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	n := h.NumVertices()
	if n < 2 {
		return nil, fmt.Errorf("flowpart: hypergraph has %d vertices; need at least 2", n)
	}
	if c := opts.Constraint; c.HasFixed() {
		// drawSeedPair needs at least one source-eligible and one
		// sink-eligible module; a fixed set covering every vertex on one
		// side admits no bipartition at all.
		srcOK, sinkOK := false, false
		for v := 0; v < n; v++ {
			if c.Fixed(v) <= 0 {
				srcOK = true // free or Left-fixed: source-eligible
			}
			if c.Fixed(v) != 0 {
				sinkOK = true // free or Right-fixed: sink-eligible
			}
		}
		if !srcOK || !sinkOK {
			return nil, fmt.Errorf("flowpart: fixed assignment pins every module to one side")
		}
	}
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "flow",
		Starts:      engine.NormalizeTo(opts.SeedPairs, 5),
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, start int, rng *rand.Rand, _ *engine.Scratch) (*Result, error) {
			s, t := drawSeedPair(n, rng, opts.Constraint)
			// An exact cut has no usable partial result, so a deadline
			// mid-solve returns ctx's error, which the engine treats as
			// "this pair never ran" — the run degrades to the pairs
			// already solved instead of blocking past the deadline. The
			// first pair alone runs detached, preserving the library-wide
			// contract that a cancelled run still returns a result.
			if start == 0 {
				ctx = context.Background()
			}
			p, value, err := minNetCutFixed(ctx, h, s, t, opts.Constraint)
			if err != nil {
				return nil, err
			}
			if !opts.Constraint.IsZero() {
				// The flow respects the pins exactly but knows nothing of
				// the ε bound; the shared greedy repair finishes the job.
				if err := rebalance.Enforce(h, p, opts.Constraint); err != nil {
					return nil, fmt.Errorf("flowpart: %w", err)
				}
			}
			return &Result{Partition: p, CutSize: partition.CutSize(h, p), FlowValue: value}, nil
		},
		Better: func(a, b *Result) bool {
			if a.CutSize != b.CutSize {
				return a.CutSize < b.CutSize
			}
			return a.FlowValue < b.FlowValue
		},
		Cut:        func(r *Result) int { return r.CutSize },
		Checkpoint: opts.Checkpoint,
	})
	if err != nil {
		return nil, err
	}
	best.Engine = es
	return best, nil
}

// Package spectral implements spectral hypergraph bipartitioning — the
// "graph space" / eigenvector family of methods the paper's
// introduction cites (Fukunaga et al., reference [11]) among the
// accurate-but-expensive alternatives to combinatorial heuristics.
//
// The hypergraph is mapped to a weighted graph by clique expansion
// (each net of size k contributes weight w(e)/(k−1) between every pin
// pair, so a cut net contributes ~w(e) regardless of size), the Fiedler
// vector of the graph Laplacian is computed by shifted power iteration
// with deflation, and the final cut is the best prefix of the vertices
// sorted by their Fiedler coordinate (a "sweep cut"), evaluated on the
// true hypergraph cutsize under a balance window.
package spectral

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// The power iteration and sweep settings.
const (
	// iterations bounds the power iterations.
	iterations = 300
	// tolerance stops iteration when the vector movement drops below it.
	tolerance = 1e-7
	// maxCliqueSize skips clique expansion of nets above this size; such
	// nets still count in the final cut evaluation.
	maxCliqueSize = 50
	// sweepMinFraction restricts the sweep without a constraint to
	// prefixes whose smaller side holds at least this fraction of the
	// total weight.
	sweepMinFraction = 0.25
)

// Options configures Bisect.
type Options struct {
	// Starts is the number of independent random starting vectors for
	// the power iteration; the best sweep cut wins (default 1). Extra
	// starts guard against unlucky initial vectors that are nearly
	// orthogonal to the Fiedler direction.
	Starts int
	// Seed makes the initial vectors deterministic; each start draws
	// from its own stream, so results are independent of Parallelism.
	Seed int64
	// Parallelism is the number of workers running starts concurrently;
	// values < 1 mean GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Constraint is the unified balance contract: fixed vertices are
	// pre-assigned and the sweep only moves free vertices along the
	// Fiedler order; when an ε bound is present the admissible window
	// derives from Constraint.MaxSideWeight. The zero value preserves
	// historical behavior exactly.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed start into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

// Result is the spectral outcome.
type Result struct {
	// Partition is the sweep-cut bipartition.
	Partition *partition.Bipartition
	// CutSize is its hypergraph cutsize.
	CutSize int
	// Fiedler is the computed Fiedler coordinate per vertex.
	Fiedler []float64
	// Iterations actually run (in the winning start, under
	// multi-start).
	Iterations int
	// Engine reports the multi-start execution (starts run, winning
	// start, per-start cuts, wall/CPU time).
	Engine engine.Stats
}

// arc is one weighted adjacency entry of the clique expansion.
type arc struct {
	to int
	w  float64
}

// Bisect spectrally bipartitions h.
func Bisect(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BisectCtx(context.Background(), h, opts)
}

// BisectCtx is Bisect with cancellation: the power iteration polls ctx
// every iteration and sweeps whatever vector it has when ctx expires;
// the engine returns the best completed start (start 0 always runs).
// The clique expansion is built once and shared read-only by all
// starts.
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	n := h.NumVertices()
	if n < 2 {
		return nil, fmt.Errorf("spectral: hypergraph has %d vertices; need at least 2", n)
	}
	adj, deg := cliqueExpand(h, maxCliqueSize)
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "spectral",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, _ int, rng *rand.Rand, _ *engine.Scratch) (*Result, error) {
			return bisectOnce(ctx, h, adj, deg, opts, rng), nil
		},
		Better: func(a, b *Result) bool {
			if a.CutSize != b.CutSize {
				return a.CutSize < b.CutSize
			}
			return partition.Imbalance(h, a.Partition) < partition.Imbalance(h, b.Partition)
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

// cliqueExpand maps the hypergraph to a weighted graph: each net of
// size k ≤ maxCliqueSize contributes weight w(e)/(k−1) between every
// pin pair.
func cliqueExpand(h *hypergraph.Hypergraph, maxCliqueSize int) (adj [][]arc, deg []float64) {
	n := h.NumVertices()
	adj = make([][]arc, n)
	deg = make([]float64, n) // weighted degree
	for e := 0; e < h.NumEdges(); e++ {
		pins := h.EdgePins(e)
		k := len(pins)
		if k < 2 || k > maxCliqueSize {
			continue
		}
		w := float64(h.EdgeWeight(e)) / float64(k-1)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				adj[pins[i]] = append(adj[pins[i]], arc{pins[j], w})
				adj[pins[j]] = append(adj[pins[j]], arc{pins[i], w})
				deg[pins[i]] += w
				deg[pins[j]] += w
			}
		}
	}
	return adj, deg
}

// bisectOnce runs one spectral start: power-iterate from a random
// vector drawn from rng, then sweep-cut the resulting coordinates.
func bisectOnce(ctx context.Context, h *hypergraph.Hypergraph, adj [][]arc, deg []float64, opts Options, rng *rand.Rand) *Result {
	n := h.NumVertices()
	// Shifted power iteration on M = cI − L, c = 1 + max weighted
	// degree ⇒ the dominant eigenvector of M not proportional to the
	// all-ones vector is the Fiedler vector of L.
	c := 1.0
	for _, d := range deg {
		if 2*d+1 > c {
			c = 2*d + 1
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	y := make([]float64, n)
	ones := 1 / math.Sqrt(float64(n))
	iters := 0
	for ; iters < iterations && ctx.Err() == nil; iters++ {
		// y = (cI − L)x = (c − deg)·x + A·x
		for i := 0; i < n; i++ {
			y[i] = (c - deg[i]) * x[i]
		}
		for i := 0; i < n; i++ {
			for _, a := range adj[i] {
				y[a.to] += a.w * x[i]
			}
		}
		// Deflate the all-ones eigenvector and normalize.
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += y[i] * ones
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			y[i] -= dot * ones
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			// Degenerate (e.g. edgeless) input: keep the random vector.
			break
		}
		moved := 0.0
		for i := 0; i < n; i++ {
			y[i] /= norm
			d := y[i] - x[i]
			if d < 0 {
				d = -d
			}
			if d > moved {
				moved = d
			}
		}
		x, y = y, x
		if moved < tolerance {
			iters++
			break
		}
	}

	var p *partition.Bipartition
	var cut int
	if opts.Constraint.IsZero() {
		p, cut = sweepCut(h, x)
	} else {
		p, cut = sweepCutConstrained(h, x, opts.Constraint)
	}
	return &Result{Partition: p, CutSize: cut, Fiedler: x, Iterations: iters}
}

// sweepCutConstrained is sweepCut projected around the constraint's
// locked cells: fixed vertices start (and stay) on their pinned sides,
// only free vertices travel Left along the Fiedler order, and a prefix
// is admissible when both side weights respect the ε bound (or, absent
// one, when both sides are nonempty). The result is hard-enforced
// against the contract before returning.
func sweepCutConstrained(h *hypergraph.Hypergraph, fiedler []float64, c partition.Constraint) (*partition.Bipartition, int) {
	n := h.NumVertices()
	free := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if c.Fixed(v) < 0 {
			free = append(free, v)
		}
	}
	sort.Slice(free, func(a, b int) bool {
		if fiedler[free[a]] != fiedler[free[b]] {
			return fiedler[free[a]] < fiedler[free[b]]
		}
		return free[a] < free[b]
	})
	// Fixed cells on their sides, free cells all Right; free cells then
	// move Left along the order, tracking the cut incrementally.
	p := partition.New(n)
	for v := 0; v < n; v++ {
		p.Assign(v, partition.Right)
	}
	c.ApplyFixed(p)
	s, err := cutstate.New(h, p)
	if err != nil {
		panic("spectral: " + err.Error())
	}
	total := h.TotalVertexWeight()
	maxSide := total
	if c.HasBalance() {
		maxSide = c.MaxSideWeight(total, 2)
	}
	lw, _ := s.Weights()
	bestCut, bestPrefix := -1, -1
	leftCount := 0
	for v := 0; v < n; v++ {
		if c.Fixed(v) == 0 {
			leftCount++
		}
	}
	for i := 0; i < len(free); i++ {
		s.Move(free[i])
		lw += h.VertexWeight(free[i])
		if lw > maxSide || total-lw > maxSide {
			continue
		}
		// Both sides must stay nonempty: Left holds leftCount fixed
		// cells plus i+1 free ones.
		if leftCount+i+1 == n {
			break // everything Left — not a bipartition
		}
		if bestCut == -1 || s.Cut() < bestCut {
			bestCut, bestPrefix = s.Cut(), i
		}
	}
	out := partition.New(n)
	for v := 0; v < n; v++ {
		out.Assign(v, partition.Right)
	}
	c.ApplyFixed(out)
	for i := 0; i <= bestPrefix; i++ {
		out.Assign(free[i], partition.Left)
	}
	// The window may have admitted nothing, or the pinned start itself
	// may violate the bound; Enforce repairs both (and is a no-op on an
	// already-feasible sweep result).
	if err := rebalance.Enforce(h, out, c); err != nil {
		// Infeasible constraint: fall back to the raw sweep result with
		// fixed sides applied so the engine's oracle rejects it loudly
		// rather than silently dropping the start.
		_ = err
	}
	return out, partition.CutSize(h, out)
}

// sweepCut orders vertices by Fiedler coordinate and picks the best
// prefix by true hypergraph cutsize among those leaving each side at
// least sweepMinFraction of the total weight.
func sweepCut(h *hypergraph.Hypergraph, fiedler []float64) (*partition.Bipartition, int) {
	n := h.NumVertices()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if fiedler[order[a]] != fiedler[order[b]] {
			return fiedler[order[a]] < fiedler[order[b]]
		}
		return order[a] < order[b]
	})
	// Start with everything Right; move vertices Left along the order,
	// tracking the cut incrementally.
	p := partition.New(n)
	for v := 0; v < n; v++ {
		p.Assign(v, partition.Right)
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		panic("spectral: " + err.Error())
	}
	total := h.TotalVertexWeight()
	minSide := int64(sweepMinFraction * float64(total))
	bestCut, bestPrefix := -1, -1
	var lw int64
	for i := 0; i < n-1; i++ {
		s.Move(order[i])
		lw += h.VertexWeight(order[i])
		if lw < minSide || total-lw < minSide {
			continue
		}
		if bestCut == -1 || s.Cut() < bestCut {
			bestCut, bestPrefix = s.Cut(), i
		}
	}
	if bestPrefix == -1 {
		// The balance window admitted nothing (e.g. one giant module);
		// fall back to the median split.
		bestPrefix = n/2 - 1
		bestCut = -1
	}
	out := partition.New(n)
	for i, v := range order {
		if i <= bestPrefix {
			out.Assign(v, partition.Left)
		} else {
			out.Assign(v, partition.Right)
		}
	}
	if bestCut == -1 {
		bestCut = partition.CutSize(h, out)
	}
	return out, bestCut
}

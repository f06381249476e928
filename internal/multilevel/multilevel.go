// Package multilevel implements a production multilevel bipartitioner
// — a real V-cycle on top of the library's pieces: a heavy-edge
// coarsening hierarchy (internal/matching + internal/coarsen), an
// initial cut of the coarsest hypergraph by multi-start Algorithm I,
// Fiduccia–Mattheyses refinement at every uncoarsening level, and
// corridor max-flow refinement at the finest level (see flow.go).
//
// This is the scheme that superseded flat partitioners in the decade
// after the paper; it is both the natural "future work" extension and
// the path from the paper's n≈2500 Table 2 instances to millions of
// pins. The flow refinement follows Heuer/Sanders/Schlag's KaHyPar
// blueprint; DisableFlow recovers the historical FM-only pass for
// ablation (see TestVCycleBeatsFlat).
package multilevel

import (
	"context"
	"fmt"
	"math/rand"

	"fasthgp/internal/coarsen"
	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/fm"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// Options configures the multilevel partitioner.
type Options struct {
	// Starts is the number of independent V-cycles (coarsening
	// randomization included) tried by Bisect; the best final cut wins
	// (default 1).
	Starts int
	// MinCoarseVertices stops coarsening (default 64).
	MinCoarseVertices int
	// InitialStarts is the Algorithm I multi-start count at the
	// coarsest level (default 10).
	InitialStarts int
	// Seed makes the run deterministic; each V-cycle draws from its
	// own stream, so results are independent of Parallelism.
	Seed int64
	// Parallelism is the number of workers running V-cycles
	// concurrently (and, when Starts is 1, the parallelism handed to
	// the coarsest-level Algorithm I multi-start); values < 1 mean
	// GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Deprecated: KernelWorkers is ignored; the coarsest-level
	// Algorithm I kernels are serial. It remains only because the
	// benchmark module still sets it.
	KernelWorkers int
	// Constraint is the unified balance contract, threaded through the
	// whole V-cycle: coarsening never contracts two vertices pinned to
	// opposite sides (so every level has a well-defined coarse fixed
	// set) nor merges clusters past the ε side bound, the coarsest-
	// level initial cut and each level's refinement run under the
	// projected constraint with the ε budget rescaled for cluster
	// granularity, and the final partition is hard-enforced against it.
	Constraint partition.Constraint
	// DisableFlow turns off the corridor max-flow refinement, leaving
	// the historical FM-only uncoarsening pass. The zero value (flow
	// on) is the production default; the flag exists for ablation and
	// for the differential suite proving flow's cut advantage.
	DisableFlow bool
	// Checkpoint, when non-nil, journals every completed V-cycle into
	// its sink and resumes from its recovered state — see
	// internal/engine. A resumed run returns the same Result an
	// uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

func (o *Options) defaults() {
	if o.MinCoarseVertices <= 0 {
		o.MinCoarseVertices = 64
	}
	o.InitialStarts = engine.NormalizeTo(o.InitialStarts, 10)
}

// clusterWeightCap derives the coarsening weight cap: clusters no
// heavier than an even split of the coarsest level, and never more
// than half an ε-bounded side, so contraction cannot silently make
// the balance contract unsatisfiable.
func (o *Options) clusterWeightCap(total int64) int64 {
	w := (total + int64(o.MinCoarseVertices) - 1) / int64(o.MinCoarseVertices)
	if o.Constraint.HasBalance() {
		if b := o.Constraint.MaxSideWeight(total, 2) / 2; b > 0 && b < w {
			w = b
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result is the multilevel outcome.
type Result struct {
	// Partition is the final bipartition of the input hypergraph.
	Partition *partition.Bipartition
	// CutSize is its cutsize.
	CutSize int
	// Levels is the number of coarsening levels used (in the winning
	// V-cycle, under multi-start).
	Levels int
	// CoarsestVertices is the size of the coarsest hypergraph.
	CoarsestVertices int
	// VCycle reports the winning cycle's deterministic work counters.
	VCycle VCycleStats
	// Engine reports the multi-start execution (V-cycles run, winning
	// cycle, per-cycle cuts, wall/CPU time).
	Engine engine.Stats
}

// Bisect partitions h with the multilevel scheme.
func Bisect(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BisectCtx(context.Background(), h, opts)
}

// BisectCtx is Bisect with cancellation: a V-cycle that observes ctx
// expiry still projects its partition down to the input hypergraph but
// skips further refinement, and the engine returns the best completed
// cycle (start 0 always runs).
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("multilevel: hypergraph has %d vertices; need at least 2", h.NumVertices())
	}
	opts.defaults()
	// A lone V-cycle forwards the worker budget to the coarsest-level
	// Algorithm I multi-start instead; with several cycles in flight
	// the cycles themselves are the parallel unit.
	innerParallelism := 1
	if engine.Normalize(opts.Starts) == 1 {
		innerParallelism = opts.Parallelism
	}
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "multilevel",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, _ int, rng *rand.Rand, scratch *engine.Scratch) (*Result, error) {
			return vcycle(ctx, h, opts, rng, innerParallelism, scratch)
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

// vcycle runs one full coarsen → initial cut → uncoarsen+refine cycle.
func vcycle(ctx context.Context, h *hypergraph.Hypergraph, opts Options, rng *rand.Rand,
	innerParallelism int, scratch *engine.Scratch) (*Result, error) {
	c := opts.Constraint
	var fineFixed []int8
	if c.HasFixed() {
		fineFixed = c.FixedSide
	}
	stats := &VCycleStats{}
	levels := coarsen.BuildHierarchy(h, rng, coarsen.Options{
		MinVertices:      opts.MinCoarseVertices,
		Fixed:            fineFixed,
		MaxClusterWeight: opts.clusterWeightCap(h.TotalVertexWeight()),
	})
	coarsest := h
	coarseC := c
	if len(levels) > 0 {
		top := levels[len(levels)-1]
		coarsest = top.Coarse
		coarseC = levelConstraint(c, top.Fixed, top.Coarse)
	}

	// Initial partition of the coarsest level: Algorithm I with the
	// balance-oriented settings, falling back to a random bisection on
	// degenerate inputs.
	var p *partition.Bipartition
	res, err := core.BipartitionCtx(ctx, coarsest, core.Options{
		Starts:      opts.InitialStarts,
		Seed:        rng.Int63(),
		Threshold:   10,
		BalancedBFS: true,
		Completion:  core.CompletionWeighted,
		Parallelism: innerParallelism,
		Constraint:  coarseC,
	})
	if err == nil {
		p = res.Partition
	} else {
		p = kl.SeedBisection(coarsest, rng, coarseC)
	}
	refine(ctx, coarsest, p, opts, coarseC, scratch, stats, len(levels) == 0)

	// Uncoarsen with refinement at every level. Projection always runs
	// (the result must live on the input hypergraph); refinement stops
	// once the context expires.
	for i := len(levels) - 1; i >= 0; i-- {
		var fine *hypergraph.Hypergraph
		levelC := c
		if i == 0 {
			fine = h
		} else {
			fine = levels[i-1].Coarse
			levelC = levelConstraint(c, levels[i-1].Fixed, levels[i-1].Coarse)
		}
		p = coarsen.Project(fine.NumVertices(), levels[i].Map, p)
		if ctx.Err() == nil {
			refine(ctx, fine, p, opts, levelC, scratch, stats, i == 0)
		}
	}
	if !c.IsZero() {
		// Refinement maintains the contract level by level, but a cycle
		// cut short by ctx expiry may surface an unrefined projection;
		// the shared repair makes the invariant unconditional, or
		// reports why it cannot hold.
		if err := rebalance.Enforce(h, p, c); err != nil {
			return nil, fmt.Errorf("multilevel: %w", err)
		}
	}

	stats.Levels = len(levels)
	stats.CoarsestVertices = coarsest.NumVertices()
	return &Result{
		Partition:        p,
		CutSize:          partition.CutSize(h, p),
		Levels:           len(levels),
		CoarsestVertices: coarsest.NumVertices(),
		VCycle:           *stats,
	}, nil
}

// levelConstraint rebinds the contract to one coarsening level: that
// level's coarse fixed set, with the ε budget widened by half the
// heaviest cluster's share of a side — at coarse granularity an exact
// ε may be unreachable by any assignment, and refinement at the finer
// levels re-tightens toward the caller's ε (which the final rebalance
// enforces exactly).
func levelConstraint(c partition.Constraint, fixed []int8, coarse *hypergraph.Hypergraph) partition.Constraint {
	if c.IsZero() {
		return c
	}
	lc := partition.Constraint{Epsilon: c.Epsilon, FixedSide: fixed}
	if c.HasBalance() && coarse != nil {
		var maxW int64
		for v := 0; v < coarse.NumVertices(); v++ {
			if w := coarse.VertexWeight(v); w > maxW {
				maxW = w
			}
		}
		if total := coarse.TotalVertexWeight(); total > 0 && maxW > 0 {
			lc.Epsilon += float64(maxW) / (2 * float64((total+1)/2))
		}
	}
	return lc
}

// refine improves p in place at one level: an FM pass, then — at the
// finest level only — corridor max-flow rounds and, when flow moved
// anything, another FM pass to exploit the new neighbourhood. Flow is
// confined to the finest level deliberately: there it can only improve
// the final cut (every acceptance is a non-worsening state and FM keeps
// the best partition it sees), whereas a coarse-level acceptance
// changes the projection the finer FM starts from and can strand it in
// a worse basin — observed, not hypothetical. The confinement is what
// makes cut(V-cycle) ≤ cut(flat pass) a per-instance guarantee instead
// of a median-only claim. Refinement is best-effort and skipped for
// degenerate partitions FM would reject.
func refine(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition,
	opts Options, c partition.Constraint, scratch *engine.Scratch, stats *VCycleStats, finest bool) {
	if err := p.Validate(h); err != nil {
		return
	}
	before := partition.CutSize(h, p)
	fmOpts := fm.Options{Constraint: c}
	_, err := fm.ImproveCtx(ctx, h, p, fmOpts)
	_ = err // FM validates the same preconditions; nothing to do on failure
	if finest && !opts.DisableFlow && ctx.Err() == nil {
		accepted := stats.FlowAccepted
		flowRefine(ctx, h, p, c, scratch, stats)
		if stats.FlowAccepted > accepted && ctx.Err() == nil {
			_, err := fm.ImproveCtx(ctx, h, p, fmOpts)
			_ = err
		}
	}
	if after := partition.CutSize(h, p); after < before {
		stats.RefineGain += int64(before - after)
	}
}

// Package anneal implements simulated-annealing hypergraph
// bipartitioning (Kirkpatrick–Gelatt–Vecchi, reference [18] of the
// paper) — the "SA" column of the paper's Tables 1 and 2.
//
// The move set is single-vertex flips; the cost is the cutsize plus a
// soft penalty on weight imbalance beyond an allowed window, the
// "penalty terms in the placement metric" style of balance handling
// the paper attributes to Fukunaga et al. The schedule is geometric
// with an automatically calibrated initial temperature. The best
// balance-feasible configuration seen anywhere during the walk is
// returned.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// The schedule and the soft balance window. The initial temperature is
// calibrated per walk so that an average uphill move is accepted with
// probability ~0.8.
const (
	// cooling is the geometric cooling ratio.
	cooling = 0.95
	// movesPerVertex sets the proposed moves per temperature: this many
	// times the vertex count.
	movesPerVertex = 10
	// minTemp ends the schedule.
	minTemp = 0.05
	// frozenTemps ends the schedule early after this many consecutive
	// temperatures with no accepted move.
	frozenTemps = 4
	// windowFraction is the feasibility window without an ε: imbalance
	// up to windowFraction·total weight is free; beyond it the penalty
	// applies and the configuration is not recorded as a result.
	windowFraction = 0.1
	// penaltyWeight scales the imbalance penalty in cut units per
	// average vertex weight.
	penaltyWeight = 2
)

// Options configures the annealer. The zero value gives sensible
// defaults for netlist-sized instances.
type Options struct {
	// Seed seeds the random walk (deterministic per seed). Each start
	// draws from its own stream, so results are independent of
	// Parallelism.
	Seed int64
	// Starts is the number of independent annealing walks tried by
	// Bisect; the best final cut wins (default 1).
	Starts int
	// Parallelism is the number of workers running walks concurrently;
	// values < 1 mean GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Constraint is the unified balance contract. Fixed vertices are
	// never proposed as moves (rejected before any Metropolis draw, so
	// the walk stays deterministic), and when an ε bound is present the
	// feasibility window derives from Constraint.MaxSideWeight instead
	// of the default 10% of the total weight. The final result is
	// hard-enforced against the contract. The zero value preserves
	// historical behavior exactly.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed walk into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

// Result is the outcome of an annealing run.
type Result struct {
	// Partition is the best balance-feasible bipartition seen.
	Partition *partition.Bipartition
	// CutSize is its cutsize.
	CutSize int
	// Temperatures is the number of temperature steps executed (of the
	// winning walk, under multi-start).
	Temperatures int
	// Accepted is the total number of accepted moves.
	Accepted int
	// Engine reports the multi-start execution (walks run, winning
	// walk, per-walk cuts, wall/CPU time).
	Engine engine.Stats
}

// Bisect anneals h from a random balanced bisection.
func Bisect(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BisectCtx(context.Background(), h, opts)
}

// BisectCtx is Bisect with cancellation: each walk polls ctx inside
// its temperature loop and returns the best configuration seen so far
// when it expires, and the engine returns the best completed walk
// (start 0 always runs).
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("anneal: hypergraph has %d vertices; need at least 2", h.NumVertices())
	}
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "anneal",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, _ int, rng *rand.Rand, _ *engine.Scratch) (*Result, error) {
			return annealOnce(ctx, h, opts, rng)
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

// annealOnce runs a single annealing walk with its own RNG stream.
func annealOnce(ctx context.Context, h *hypergraph.Hypergraph, opts Options, rng *rand.Rand) (*Result, error) {
	c := opts.Constraint
	s, err := cutstate.New(h, kl.SeedBisection(h, rng, c))
	if err != nil {
		return nil, fmt.Errorf("anneal: %w", err)
	}

	n := h.NumVertices()
	total := h.TotalVertexWeight()
	window := int64(windowFraction * float64(total))
	if c.HasBalance() {
		// Feasible ⇔ both sides ≤ maxSide ⇔ |lw − rw| ≤ 2·maxSide − total.
		window = 2*c.MaxSideWeight(total, 2) - total
	}
	meanW := float64(total) / float64(n)
	if meanW <= 0 {
		meanW = 1
	}
	penalty := func(imb int64) float64 {
		if imb <= window {
			return 0
		}
		return penaltyWeight * float64(imb-window) / meanW
	}
	cost := func() float64 { return float64(s.Cut()) + penalty(s.Imbalance()) }

	// moveDelta evaluates the cost change of flipping v without
	// committing.
	moveDelta := func(v int) float64 {
		before := cost()
		s.Move(v)
		after := cost()
		s.Move(v)
		return after - before
	}

	temp := calibrate(s, rng, moveDelta)

	best := s.Partition().Clone()
	bestCut := s.Cut()
	bestFeasible := s.Imbalance() <= window
	record := func() {
		feasible := s.Imbalance() <= window
		if (feasible && !bestFeasible) ||
			(feasible == bestFeasible && s.Cut() < bestCut) {
			best = s.Partition().Clone()
			bestCut = s.Cut()
			bestFeasible = feasible
		}
	}

	res := &Result{}
	frozen := 0
	movesPerTemp := movesPerVertex * n
	for temp > minTemp && frozen < frozenTemps && ctx.Err() == nil {
		res.Temperatures++
		acceptedHere := 0
		for i := 0; i < movesPerTemp; i++ {
			// Poll cancellation inside the hot loop too: 10·n moves per
			// temperature is far too long a stride near a deadline.
			if i&1023 == 1023 && ctx.Err() != nil {
				break
			}
			v := rng.Intn(n)
			if c.Fixed(v) >= 0 {
				// Locked cell: the move is rejected outright, before the
				// Metropolis draw, so the RNG stream stays aligned with
				// the proposal sequence.
				continue
			}
			delta := moveDelta(v)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				s.Move(v)
				acceptedHere++
				record()
			}
		}
		res.Accepted += acceptedHere
		if acceptedHere == 0 {
			frozen++
		} else {
			frozen = 0
		}
		temp *= cooling
	}

	// Guard against the pathological all-one-side walk.
	if l, r, _ := best.Counts(); l == 0 || r == 0 {
		best = kl.SeedBisection(h, rng, c)
		bestCut = partition.CutSize(h, best)
	}
	// Hard-enforce the contract on the way out: the walk keeps fixed
	// cells in place by construction, but the soft window is advisory,
	// so an ε bound is repaired here if the best feasible snapshot
	// drifted past it.
	if !c.IsZero() {
		if err := rebalance.Enforce(h, best, c); err != nil {
			return nil, fmt.Errorf("anneal: %w", err)
		}
		bestCut = partition.CutSize(h, best)
	}
	res.Partition = best
	res.CutSize = bestCut
	return res, nil
}

// calibrate samples random moves and sets T0 so that the mean uphill
// delta is accepted with probability ≈ 0.8.
func calibrate(s *cutstate.State, rng *rand.Rand, moveDelta func(int) float64) float64 {
	n := s.Hypergraph().NumVertices()
	sum, count := 0.0, 0
	for i := 0; i < 100; i++ {
		d := moveDelta(rng.Intn(n))
		if d > 0 {
			sum += d
			count++
		}
	}
	if count == 0 {
		return 1
	}
	mean := sum / float64(count)
	return -mean / math.Log(0.8)
}

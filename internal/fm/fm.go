// Package fm implements the Fiduccia–Mattheyses linear-time heuristic
// for improving hypergraph bipartitions — reference [9] of the paper
// ("A Linear-Time Heuristic for Improving Network Partitions", DAC
// 1982) and the strongest of the classical move-based baselines.
//
// One pass moves single cells (not pairs, unlike Kernighan–Lin) in
// descending gain order under a balance constraint, locking each moved
// cell, then rewinds to the best prefix. Cell gains live in a bucket
// structure indexed by gain and are updated incrementally with the
// standard critical-net rules, so a pass costs O(pins).
package fm

import (
	"context"
	"fmt"
	"math/rand"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/cutstate"
	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// Options configures the partitioner.
type Options struct {
	// Starts is the number of independent random initial bisections
	// tried by Bisect; the best final cut wins (default 1).
	Starts int
	// MaxPasses bounds improvement passes (default 12).
	MaxPasses int
	// BalanceFraction is the allowed deviation from perfect weight
	// balance: each side must keep at least (0.5 − BalanceFraction) of
	// the total vertex weight (default 0.1, the r-bipartition spirit of
	// the original paper). Values ≥ 0.5 disable the constraint except
	// for non-emptiness.
	BalanceFraction float64
	// Seed seeds the initial random bisections used by Bisect; each
	// start draws from its own stream, so results are independent of
	// Parallelism.
	Seed int64
	// Parallelism is the number of workers running starts concurrently;
	// values < 1 mean GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Constraint is the unified balance contract: fixed vertices never
	// enter the gain buckets, and the pass-legality bound derives from
	// Constraint.MaxSideWeight instead of BalanceFraction float math.
	// The zero value falls back to BalanceFraction via the ε = 2b
	// mapping, so both knobs round identically at odd total weights.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed start into its
	// sink and resumes from its recovered state — see internal/checkpoint.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

func (o *Options) defaults() {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 12
	}
	if o.BalanceFraction <= 0 {
		o.BalanceFraction = 0.1
	}
}

// Result is the outcome of an FM run.
type Result struct {
	// Partition is the final bipartition.
	Partition *partition.Bipartition
	// CutSize is its cutsize.
	CutSize int
	// Passes is the number of passes executed (of the winning start,
	// under multi-start).
	Passes int
	// Engine reports the multi-start execution (starts run, winning
	// start, per-start cuts, wall/CPU time).
	Engine engine.Stats
}

// Bisect partitions h starting from a random balanced bisection.
func Bisect(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BisectCtx(context.Background(), h, opts)
}

// BisectCtx is Bisect with cancellation: the best result among the
// starts that completed is returned when ctx expires (start 0 always
// runs). Within a start, passes stop early at cancellation.
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("fm: hypergraph has %d vertices; need at least 2", h.NumVertices())
	}
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "fm",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, _ int, rng *rand.Rand, scratch *engine.Scratch) (*Result, error) {
			var p *partition.Bipartition
			if opts.Constraint.IsZero() {
				p = kl.RandomBisection(h.NumVertices(), rng)
			} else {
				p = kl.RandomBisectionConstrained(h, rng, opts.Constraint)
			}
			return improveLocked(ctx, h, p, nil, opts, scratch)
		},
		Better: func(a, b *Result) bool { return betterResult(h, a, b) },
		Cut:    func(r *Result) int { return r.CutSize },
		Checkpoint: engine.BindCheckpoint(opts.Checkpoint,
			func(r *Result) []byte {
				return checkpoint.EncodeBest(r.Partition.Sides(), r.CutSize, int64(r.Passes))
			},
			func(b []byte) (*Result, error) {
				p, cut, aux, err := checkpoint.DecodeBestFor(h, b, 1)
				if err != nil {
					return nil, fmt.Errorf("fm: %w", err)
				}
				return &Result{Partition: p, CutSize: cut, Passes: int(aux[0])}, nil
			}),
	})
	if err != nil {
		return nil, err
	}
	best.Engine = es
	return best, nil
}

// betterResult orders candidate results: lower cut, then lower weight
// imbalance (strict, so the engine's lowest-index tie-break applies).
func betterResult(h *hypergraph.Hypergraph, a, b *Result) bool {
	if a.CutSize != b.CutSize {
		return a.CutSize < b.CutSize
	}
	return partition.Imbalance(h, a.Partition) < partition.Imbalance(h, b.Partition)
}

// Improve runs FM passes from the given complete bipartition, modified
// in place and returned.
func Improve(h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options) (*Result, error) {
	return ImproveLocked(h, p, nil, opts)
}

// ImproveCtx is Improve with cancellation: passes stop early when ctx
// expires and the partition as improved so far is returned.
func ImproveCtx(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options) (*Result, error) {
	return ImproveLockedCtx(ctx, h, p, nil, opts)
}

// ImproveLocked is Improve with a set of permanently fixed vertices
// (fixed[v] = true ⇒ v never moves). This is the hook for
// terminal-propagation placement (Dunlop–Kernighan): anchor vertices
// representing external pins are fixed to their side. A nil fixed
// slice fixes nothing.
func ImproveLocked(h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []bool, opts Options) (*Result, error) {
	return ImproveLockedCtx(context.Background(), h, p, fixed, opts)
}

// ImproveLockedCtx is ImproveLocked with cancellation between passes.
func ImproveLockedCtx(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []bool, opts Options) (*Result, error) {
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	return improveLocked(ctx, h, p, fixed, opts, scratch)
}

func improveLocked(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []bool, opts Options, scratch *engine.Scratch) (*Result, error) {
	opts.defaults()
	if err := p.Validate(h); err != nil {
		return nil, fmt.Errorf("fm: %w", err)
	}
	if fixed != nil && len(fixed) != h.NumVertices() {
		return nil, fmt.Errorf("fm: fixed covers %d vertices, hypergraph has %d", len(fixed), h.NumVertices())
	}
	c := opts.Constraint
	if !c.IsZero() {
		if err := rebalance.Enforce(h, p, c); err != nil {
			return nil, fmt.Errorf("fm: %w", err)
		}
		// The constraint's pins are permanent locks, merged with any
		// caller-supplied fixed set.
		if cb := c.FixedBools(h.NumVertices()); cb != nil {
			if fixed == nil {
				fixed = cb
			} else {
				merged := make([]bool, len(fixed))
				copy(merged, fixed)
				for v := range cb {
					merged[v] = merged[v] || cb[v]
				}
				fixed = merged
			}
		}
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		return nil, fmt.Errorf("fm: %w", err)
	}
	// The balance legality bound: both knobs (the ε contract and the
	// legacy BalanceFraction) route through Constraint.MaxSideWeight so
	// that odd total weights truncate identically everywhere. Keeping a
	// side at ≥ minSide automatically caps the other at maxSide since
	// the two are complements.
	bal := c
	if !bal.HasBalance() {
		bal = partition.FromBalanceFraction(opts.BalanceFraction)
	}
	minSide := bal.MinSideWeight(h.TotalVertexWeight())
	// Side arrays are leased once per improvement run and re-zeroed by
	// each pass, so repeated passes (and parallel starts) do not
	// reallocate them.
	n := h.NumVertices()
	locked := scratch.Bools(n)
	gain := scratch.Ints(n)
	passes := 0
	for passes < opts.MaxPasses && ctx.Err() == nil {
		passes++
		if kept := runPass(s, minSide, fixed, locked, gain); kept <= 0 {
			break
		}
	}
	return &Result{Partition: p, CutSize: s.Cut(), Passes: passes}, nil
}

// buckets is a lazy max-gain bucket queue: stale entries are skipped on
// pop (an entry is valid only if the vertex is unlocked and its current
// gain matches the bucket it is popped from).
type buckets struct {
	offset int
	lists  [][]int
	maxPtr int
}

func newBuckets(maxGain int) *buckets {
	return &buckets{
		offset: maxGain,
		lists:  make([][]int, 2*maxGain+1),
		maxPtr: -1,
	}
}

func (b *buckets) push(v, gain int) {
	i := gain + b.offset
	b.lists[i] = append(b.lists[i], v)
	if i > b.maxPtr {
		b.maxPtr = i
	}
}

// pop returns the highest-gain entry satisfying valid, skipping and
// discarding stale ones.
func (b *buckets) pop(valid func(v, gain int) bool) (int, bool) {
	for b.maxPtr >= 0 {
		l := b.lists[b.maxPtr]
		if len(l) == 0 {
			b.maxPtr--
			continue
		}
		v := l[len(l)-1]
		b.lists[b.maxPtr] = l[:len(l)-1]
		if valid(v, b.maxPtr-b.offset) {
			return v, true
		}
	}
	return 0, false
}

// runPass executes one FM pass and returns the cut improvement kept.
// Vertices with fixed[v] = true start locked and never move. locked
// and gain are caller-owned length-n side arrays; the pass re-zeroes
// them on entry.
func runPass(s *cutstate.State, minSide int64, fixed, locked []bool, gain []int) int {
	h := s.Hypergraph()
	n := h.NumVertices()
	clear(locked)
	if fixed != nil {
		copy(locked, fixed)
	}
	clear(gain)
	maxDeg := h.MaxVertexDegree()
	bq := newBuckets(maxDeg)
	for v := 0; v < n; v++ {
		gain[v] = s.Gain(v)
		if !locked[v] {
			bq.push(v, gain[v])
		}
	}

	// Side populations, maintained incrementally across moves: the
	// legality check runs once per bucket pop, so an O(n) Counts() here
	// dominated whole-pass cost at 10⁵-pin scale.
	l, r, _ := s.Partition().Counts()
	legal := func(v int) bool {
		// Moving v must leave its side with at least minSide weight and
		// at least one vertex.
		lw, rw := s.Weights()
		w := h.VertexWeight(v)
		if s.Side(v) == partition.Left {
			return lw-w >= minSide && l > 1
		}
		return rw-w >= minSide && r > 1
	}

	var seq []int
	cum, bestCum, bestIdx := 0, 0, -1
	// Scratch for net counts on the to-side before the move.
	for {
		v, ok := bq.pop(func(v, g int) bool {
			return !locked[v] && gain[v] == g && legal(v)
		})
		if !ok {
			break
		}
		updateGainsAndMove(s, v, locked, gain, bq)
		if s.Side(v) == partition.Left {
			l, r = l+1, r-1
		} else {
			l, r = l-1, r+1
		}
		locked[v] = true
		seq = append(seq, v)
		cum += gain[v]
		if cum > bestCum {
			bestCum, bestIdx = cum, len(seq)-1
		}
	}
	for i := len(seq) - 1; i > bestIdx; i-- {
		s.Move(seq[i])
	}
	return bestCum
}

// updateGainsAndMove moves v, applying cutstate's incremental gain
// rules to the unlocked cells and re-queueing each at its new gain.
func updateGainsAndMove(s *cutstate.State, v int, locked []bool, gain []int, bq *buckets) {
	s.MoveWithGainDeltas(v, func(u, d int) {
		if locked[u] {
			return
		}
		gain[u] += d
		bq.push(u, gain[u])
	})
}

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
	"math"
	"math/rand"

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
	// Constraint.MaxSideWeight. Without an ε, BalanceFraction b applies
	// as ε = 2b through the same bound, so both round identically at
	// odd total weights.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed start into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

// maxPasses bounds the improvement passes of one run.
const maxPasses = 12

func (o *Options) defaults() {
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
			p := kl.SeedBisection(h, rng, opts.Constraint)
			return improve(ctx, h, p, opts, scratch)
		},
		Better:     func(a, b *Result) bool { return betterResult(h, a, b) },
		Cut:        func(r *Result) int { return r.CutSize },
		Checkpoint: opts.Checkpoint,
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
// in place and returned. The vertices opts.Constraint pins never move:
// terminal-propagation placement (Dunlop–Kernighan) pins the anchor
// vertices that stand for external pins this way.
func Improve(h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options) (*Result, error) {
	return ImproveCtx(context.Background(), h, p, opts)
}

// ImproveCtx is Improve with cancellation: passes stop early when ctx
// expires and the partition as improved so far is returned.
func ImproveCtx(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options) (*Result, error) {
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	return improve(ctx, h, p, opts, scratch)
}

func improve(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options, scratch *engine.Scratch) (*Result, error) {
	opts.defaults()
	if err := p.Validate(h); err != nil {
		return nil, fmt.Errorf("fm: %w", err)
	}
	c := opts.Constraint
	var fixed []bool // the constraint's pins, permanent locks
	if !c.IsZero() {
		if err := rebalance.Enforce(h, p, c); err != nil {
			return nil, fmt.Errorf("fm: %w", err)
		}
		fixed = c.FixedBools(h.NumVertices())
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		return nil, fmt.Errorf("fm: %w", err)
	}
	// The balance legality bound: both knobs (the ε contract and
	// BalanceFraction as ε = 2b) route through Constraint.MaxSideWeight
	// so that odd total weights truncate identically everywhere. Keeping
	// a side at ≥ minSide automatically caps the other at maxSide since
	// the two are complements.
	bal := c
	if !bal.HasBalance() {
		bal = partition.Constraint{Epsilon: 2 * opts.BalanceFraction}
	}
	minSide := bal.MinSideWeight(h.TotalVertexWeight())
	// Side arrays are leased once per improvement run and re-zeroed by
	// each pass, and the bucket queue and move sequence are reset by
	// each pass, so repeated passes (and parallel starts) do not
	// reallocate them.
	n := h.NumVertices()
	locked := scratch.Bools(n)
	gain := scratch.Ints(n)
	bq := newBuckets(h.MaxVertexDegree())
	// A pass queues each free vertex once plus one entry per gain
	// update; n + pins holds a whole pass on power-law V-cycle levels
	// (at most 0.89 of it measured), so the list rarely regrows.
	bq.entries = make([]bucketEntry, 0, n+h.NumPins())
	var seq []int
	passes := 0
	for passes < maxPasses && ctx.Err() == nil {
		passes++
		var kept int
		if kept, seq = runPass(s, minSide, fixed, locked, gain, bq, seq[:0]); kept <= 0 {
			break
		}
	}
	return &Result{Partition: p, CutSize: s.Cut(), Passes: passes}, nil
}

// buckets is a lazy max-gain bucket queue: stale entries are skipped on
// pop (an entry is valid only if the vertex is unlocked and its current
// gain matches the bucket it is popped from). Each gain's bucket is a
// LIFO stack threaded through one flat entry list, so a pass pushes
// without allocating once the list has grown to the pass's size, and
// reset empties every bucket while keeping the list's capacity.
type buckets struct {
	offset int
	// head[g+offset] is the index in entries of gain g's top entry, −1
	// when that bucket is empty.
	head    []int32
	entries []bucketEntry
	maxPtr  int
}

// bucketEntry is one queued vertex and the entry below it in its
// bucket (−1 at the bottom).
type bucketEntry struct {
	v, next int32
}

func newBuckets(maxGain int) *buckets {
	b := &buckets{offset: maxGain, head: make([]int32, 2*maxGain+1)}
	b.reset()
	return b
}

// reset empties every bucket.
func (b *buckets) reset() {
	for i := range b.head {
		b.head[i] = -1
	}
	b.entries = b.entries[:0]
	b.maxPtr = -1
}

func (b *buckets) push(v, gain int) {
	if len(b.entries) == math.MaxInt32 {
		panic("fm: bucket queue holds 2³¹ entries")
	}
	i := gain + b.offset
	b.entries = append(b.entries, bucketEntry{v: int32(v), next: b.head[i]})
	b.head[i] = int32(len(b.entries) - 1)
	if i > b.maxPtr {
		b.maxPtr = i
	}
}

// pop returns the highest-gain entry satisfying valid, skipping and
// discarding stale ones.
func (b *buckets) pop(valid func(v, gain int) bool) (int, bool) {
	for b.maxPtr >= 0 {
		top := b.head[b.maxPtr]
		if top < 0 {
			b.maxPtr--
			continue
		}
		e := b.entries[top]
		b.head[b.maxPtr] = e.next
		if valid(int(e.v), b.maxPtr-b.offset) {
			return int(e.v), true
		}
	}
	return 0, false
}

// runPass executes one FM pass and returns the cut improvement kept
// and the pass's move sequence, appended to seq. Vertices with
// fixed[v] = true start locked and never move. locked and gain are
// caller-owned length-n side arrays and bq a caller-owned queue; the
// pass resets all three on entry.
func runPass(s *cutstate.State, minSide int64, fixed, locked []bool, gain []int, bq *buckets, seq []int) (int, []int) {
	h := s.Hypergraph()
	n := h.NumVertices()
	clear(locked)
	if fixed != nil {
		copy(locked, fixed)
	}
	s.Gains(gain)
	bq.reset()
	for v := 0; v < n; v++ {
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

	cum, bestCum, bestIdx := 0, 0, -1
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
	return bestCum, seq
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

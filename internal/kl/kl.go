// Package kl implements Kernighan–Lin bipartitioning adapted to
// hypergraphs with the Schweikert–Kernighan net model — the family of
// methods ("MinCut-KL") the paper benchmarks Algorithm I against.
//
// The classic scheme: starting from a balanced bisection, a pass
// tentatively swaps locked-out pairs of vertices chosen for maximum
// exact swap gain, records the running cumulative gain, and finally
// rewinds to the best prefix. Passes repeat until one yields no
// improvement. Swap selection scans the top-K gain candidates on each
// side and evaluates exact hypergraph swap gains (which, unlike the
// graph case, are not determined by the two individual gains), keeping
// the cost per pass near the O(n² log n) regime the paper cites.
//
// Multi-start (Options.Starts) repeats the whole descent from several
// random bisections through the shared engine runtime, which fans the
// starts across Options.Parallelism workers deterministically.
package kl

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

// Options configures the partitioner.
type Options struct {
	// Starts is the number of independent random initial bisections
	// tried by Bisect; the best final cut wins (default 1).
	Starts int
	// MaxPasses bounds the number of improvement passes (default 10).
	MaxPasses int
	// Seed seeds the initial random bisections used by Bisect; each
	// start draws from its own stream, so results are independent of
	// Parallelism.
	Seed int64
	// Parallelism is the number of workers running starts concurrently;
	// values < 1 mean GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Constraint is the unified balance contract: fixed vertices are
	// locked out of swap selection, and (when an ε bound is present)
	// swaps that would push a side past Constraint.MaxSideWeight are
	// rejected. The zero value preserves the historical unconstrained
	// behavior exactly.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed start into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would.
	Checkpoint *engine.CheckpointIO
}

// candidates is the number of top-gain vertices per side scanned when
// selecting each swap. Larger values approach the textbook full pair
// scan at quadratic cost.
const candidates = 8

func (o *Options) defaults() {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 10
	}
}

// Result is the outcome of a KL run.
type Result struct {
	// Partition is the final bisection.
	Partition *partition.Bipartition
	// CutSize is its cutsize.
	CutSize int
	// Passes is the number of improvement passes executed (of the
	// winning start, under multi-start).
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
// runs). Within a start, passes stop early at cancellation and the
// best prefix found so far is kept.
func BisectCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("kl: hypergraph has %d vertices; need at least 2", h.NumVertices())
	}
	opts.defaults()
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "kl",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(ctx context.Context, _ int, rng *rand.Rand, scratch *engine.Scratch) (*Result, error) {
			p := SeedBisection(h, rng, opts.Constraint)
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

// RandomBisection returns a uniformly random balanced bisection of n
// vertices (left side receives the extra vertex when n is odd).
func RandomBisection(n int, rng *rand.Rand) *partition.Bipartition {
	p := partition.New(n)
	perm := rng.Perm(n)
	half := (n + 1) / 2
	for i, v := range perm {
		if i < half {
			p.Assign(v, partition.Left)
		} else {
			p.Assign(v, partition.Right)
		}
	}
	return p
}

// SeedBisection builds the initial bisection for one start: the plain
// uniform RandomBisection when c is zero (preserving historical RNG
// consumption exactly), RandomBisectionConstrained otherwise. Every
// partitioner that starts from a random bisection seeds through it.
func SeedBisection(h *hypergraph.Hypergraph, rng *rand.Rand, c partition.Constraint) *partition.Bipartition {
	if c.IsZero() {
		return RandomBisection(h.NumVertices(), rng)
	}
	return RandomBisectionConstrained(h, rng, c)
}

// RandomBisectionConstrained returns a random bisection honoring the
// constraint: fixed vertices go to their pinned sides, and the free
// vertices are visited in a random order and greedily assigned to the
// lighter side so the ε bound is met whenever it is meetable by this
// construction. Deterministic for a fixed rng stream.
func RandomBisectionConstrained(h *hypergraph.Hypergraph, rng *rand.Rand, c partition.Constraint) *partition.Bipartition {
	n := h.NumVertices()
	p := partition.New(n)
	var lw, rw int64
	free := make([]int, 0, n)
	for v := 0; v < n; v++ {
		switch f := c.Fixed(v); {
		case f == 0:
			p.Assign(v, partition.Left)
			lw += h.VertexWeight(v)
		case f > 0:
			p.Assign(v, partition.Right)
			rw += h.VertexWeight(v)
		default:
			free = append(free, v)
		}
	}
	perm := rng.Perm(len(free))
	for _, i := range perm {
		v := free[i]
		if lw <= rw {
			p.Assign(v, partition.Left)
			lw += h.VertexWeight(v)
		} else {
			p.Assign(v, partition.Right)
			rw += h.VertexWeight(v)
		}
	}
	return p
}

// Improve runs KL passes from the given complete bipartition, which is
// modified in place and returned. Swaps preserve the initial side
// cardinalities exactly.
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
	c := opts.Constraint
	if !c.IsZero() {
		if err := rebalance.Enforce(h, p, c); err != nil {
			return nil, fmt.Errorf("kl: %w", err)
		}
	}
	if err := p.Validate(h); err != nil {
		return nil, fmt.Errorf("kl: %w", err)
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		return nil, fmt.Errorf("kl: %w", err)
	}
	maxSide := int64(math.MaxInt64)
	if c.HasBalance() {
		maxSide = c.MaxSideWeight(h.TotalVertexWeight(), 2)
	}
	// The locked side array is leased once per improvement run and
	// re-zeroed by each pass.
	locked := scratch.Bools(h.NumVertices())
	passes := 0
	for passes < opts.MaxPasses && ctx.Err() == nil {
		passes++
		if gain := runPass(s, candidates, locked, c, maxSide); gain <= 0 {
			break
		}
	}
	return &Result{Partition: p, CutSize: s.Cut(), Passes: passes}, nil
}

// runPass executes one KL pass on s and returns the net cut improvement
// it kept (0 when the pass was fully rewound). locked is a caller-owned
// length-n side array, re-zeroed on entry.
func runPass(s *cutstate.State, candidates int, locked []bool, c partition.Constraint, maxSide int64) int {
	clear(locked)

	type swap struct{ a, b int }
	var seq []swap
	cum, bestCum, bestIdx := 0, 0, -1

	for {
		a, b, ok := selectSwap(s, locked, candidates, c, maxSide)
		if !ok {
			break
		}
		gain := s.SwapGain(a, b)
		s.Move(a)
		s.Move(b)
		locked[a], locked[b] = true, true
		seq = append(seq, swap{a, b})
		cum += gain
		if cum > bestCum {
			bestCum, bestIdx = cum, len(seq)-1
		}
	}
	// Rewind to the best prefix.
	for i := len(seq) - 1; i > bestIdx; i-- {
		s.Move(seq[i].a)
		s.Move(seq[i].b)
	}
	return bestCum
}

// selectSwap picks the best swap among the top-`candidates` gain
// vertices of each side, by exact hypergraph swap gain. Vertices pinned
// by the constraint never enter the candidate pool, and swaps that
// would push a side's weight past maxSide are rejected. Deterministic:
// ties break toward lower vertex indices.
func selectSwap(s *cutstate.State, locked []bool, candidates int, c partition.Constraint, maxSide int64) (a, b int, ok bool) {
	h := s.Hypergraph()
	n := h.NumVertices()
	type cand struct {
		v    int
		gain int
	}
	var ls, rs []cand
	for v := 0; v < n; v++ {
		if locked[v] || c.Fixed(v) >= 0 {
			continue
		}
		cd := cand{v, s.Gain(v)}
		if s.Side(v) == partition.Left {
			ls = append(ls, cd)
		} else {
			rs = append(rs, cd)
		}
	}
	if len(ls) == 0 || len(rs) == 0 {
		return 0, 0, false
	}
	top := func(cs []cand) []cand {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].gain != cs[j].gain {
				return cs[i].gain > cs[j].gain
			}
			return cs[i].v < cs[j].v
		})
		if len(cs) > candidates {
			cs = cs[:candidates]
		}
		return cs
	}
	ls, rs = top(ls), top(rs)
	lw, rw := s.Weights()
	total := lw + rw
	bestGain := 0
	found := false
	for _, ca := range ls {
		for _, cb := range rs {
			if nl := lw - h.VertexWeight(ca.v) + h.VertexWeight(cb.v); nl > maxSide || total-nl > maxSide {
				continue
			}
			g := s.SwapGain(ca.v, cb.v)
			if !found || g > bestGain ||
				(g == bestGain && (ca.v < a || (ca.v == a && cb.v < b))) {
				bestGain, a, b, found = g, ca.v, cb.v, true
			}
		}
	}
	return a, b, found
}

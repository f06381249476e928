// Package kway extends the library's bipartitioners to K-way
// partitioning by recursive bisection — the construction the paper's
// min-cut placement application performs implicitly, exposed here as a
// first-class partitioner with the standard K-way metrics (cut nets
// and the connectivity objective Σ(λ(e) − 1)).
//
// Each recursion step splits a vertex subset into two groups whose
// weights are proportional to the number of final parts each group
// will contain (so any K ≥ 2 is supported, not just powers of two),
// using Algorithm I for the initial cut, greedy rebalancing into the
// band where both groups can still be cut into bounded parts, and
// Fiduccia–Mattheyses refinement.
package kway

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/fm"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// defaultEpsilon is the K-way imbalance bound when the constraint
// carries no ε.
const defaultEpsilon = 0.1

// Options configures Partition.
type Options struct {
	// K is the number of parts (≥ 2).
	K int
	// Starts is the Algorithm I multi-start count per split
	// (default 5).
	Starts int
	// Seed makes the run deterministic; results are independent of
	// Parallelism.
	Seed int64
	// Parallelism is the worker budget handed to each split's
	// Algorithm I multi-start (the recursion itself is sequential);
	// values < 1 mean GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// KernelWorkers is the intra-start worker count forwarded to each
	// split's Algorithm I kernels. Values < 1 mean 1. Wall time only,
	// never the result.
	KernelWorkers int
	// Constraint is the unified balance contract, interpreted K-way:
	// FixedSide entries are target part ids in [0, K) (−1 free; K ≤ 127
	// when fixed vertices are present, the int8 limit), and Epsilon
	// (0.1 when unset) bounds every part at
	// Constraint.MaxSideWeight(W, K). Recursive bisection splits the ε
	// budget geometrically across the ⌈log₂K⌉ levels — each level runs
	// at ε′ = (1+ε)^(1/⌈log₂K⌉) − 1 so the leaf-level product stays
	// within the requested bound — and each split pins every fixed
	// vertex to the group containing its target part.
	//
	// Each split of a subset of weight w into groups of kLeft and
	// kRight parts is repaired, before and after refinement, into the
	// band where the left group weighs between w − kRight·m and
	// kLeft·m, with m = MaxSideWeight(w, k) at ε′; along the splits
	// above a part these bands compound to the K-way bound. The repair
	// moves whole vertices, so with weighted vertices it can stop short
	// of a band narrower than the vertices it could move, or one that
	// fixed vertices block, and a part then ends over the bound;
	// verify.CheckKWay given the same constraint reports it.
	Constraint partition.Constraint
}

func (o *Options) defaults() {
	o.Starts = engine.NormalizeTo(o.Starts, 5)
}

// Result is a K-way partition with its quality metrics.
type Result struct {
	// Part assigns each vertex a part id in [0, K).
	Part []int
	// K is the number of parts.
	K int
	// CutNets counts nets spanning more than one part.
	CutNets int
	// Connectivity is Σ over nets of (λ(e) − 1), where λ(e) is the
	// number of parts net e touches — the K-way objective that
	// generalizes cutsize (for K = 2 the two metrics coincide).
	Connectivity int64
	// PartWeights is the total vertex weight per part.
	PartWeights []int64
	// Engine reports the execution (the recursion counts as one start;
	// Cuts holds the final cut-net count, and the parallelism is the
	// per-split Algorithm I worker budget).
	Engine engine.Stats
}

// Partition splits h into opts.K parts.
func Partition(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), h, opts)
}

// PartitionCtx is Partition with cancellation: once ctx expires each
// remaining split degrades to its cheapest cut (Algorithm I's start 0
// still runs, refinement is skipped), so a complete K-way labeling is
// always returned rather than an error.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	opts.defaults()
	if opts.K < 2 {
		return nil, fmt.Errorf("kway: K must be >= 2, got %d", opts.K)
	}
	if opts.K > h.NumVertices() {
		return nil, fmt.Errorf("kway: K=%d exceeds vertex count %d", opts.K, h.NumVertices())
	}
	if err := opts.Constraint.Validate(h.NumVertices(), opts.K); err != nil {
		return nil, fmt.Errorf("kway: %w", err)
	}
	if opts.Constraint.HasFixed() && opts.K > 127 {
		return nil, fmt.Errorf("kway: fixed vertices support K <= 127, got %d", opts.K)
	}
	begin := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	part := make([]int, h.NumVertices())
	all := make([]int, h.NumVertices())
	for v := range all {
		all[v] = v
	}
	if err := split(ctx, h, all, 0, opts.K, part, opts, rng, levelEpsilon(opts)); err != nil {
		return nil, err
	}
	res := &Result{Part: part, K: opts.K, PartWeights: make([]int64, opts.K)}
	for v := 0; v < h.NumVertices(); v++ {
		res.PartWeights[part[v]] += h.VertexWeight(v)
	}
	res.CutNets, res.Connectivity = Metrics(h, part, opts.K)
	wall := time.Since(begin)
	res.Engine = engine.Stats{
		StartsRequested: 1,
		StartsRun:       1,
		BestStart:       0,
		Cuts:            []int{res.CutNets},
		Parallelism:     engine.NormalizeParallelism(opts.Parallelism),
		Wall:            wall,
		CPU:             wall,
		Cancelled:       ctx.Err() != nil,
	}
	return res, nil
}

// Metrics computes the K-way cut metrics of an arbitrary part
// labeling: the number of nets spanning more than one part and the
// connectivity Σ(λ(e) − 1).
func Metrics(h *hypergraph.Hypergraph, part []int, k int) (cutNets int, connectivity int64) {
	seen := make([]bool, k)
	for e := 0; e < h.NumEdges(); e++ {
		lambda := 0
		for _, v := range h.EdgePins(e) {
			p := part[v]
			if !seen[p] {
				seen[p] = true
				lambda++
			}
		}
		for _, v := range h.EdgePins(e) {
			seen[part[v]] = false
		}
		if lambda > 1 {
			cutNets++
			connectivity += int64(lambda - 1)
		}
	}
	return cutNets, connectivity
}

// levelEpsilon splits the K-way ε budget across the recursion depth:
// ⌈log₂K⌉ nested bisections each running at ε′ = (1+ε)^(1/depth) − 1
// compound to at most the requested (1+ε), with ε = defaultEpsilon when
// the constraint carries none.
func levelEpsilon(opts Options) float64 {
	eps := opts.Constraint.Epsilon
	if !opts.Constraint.HasBalance() {
		eps = defaultEpsilon
	}
	depth := 0
	for 1<<depth < opts.K {
		depth++
	}
	if depth < 1 {
		depth = 1
	}
	return math.Pow(1+eps, 1/float64(depth)) - 1
}

// split assigns part ids [firstPart, firstPart+k) to the given
// vertices.
func split(ctx context.Context, h *hypergraph.Hypergraph, vertices []int, firstPart, k int, part []int, opts Options, rng *rand.Rand, epsLevel float64) error {
	if k == 1 {
		for _, v := range vertices {
			part[v] = firstPart
		}
		return nil
	}
	kLeft := (k + 1) / 2
	kRight := k - kLeft

	sub, origOf := induce(h, vertices)

	// Project the K-way fixed assignment onto this split: a vertex with
	// target part < firstPart+kLeft belongs to the left group, the rest
	// to the right. Nil when nothing in this subset is pinned.
	var subFixed []int8
	if c := opts.Constraint; c.HasFixed() {
		for i, v := range origOf {
			if f := c.Fixed(v); f >= 0 {
				if subFixed == nil {
					subFixed = make([]int8, sub.NumVertices())
					for j := range subFixed {
						subFixed[j] = partition.FreeVertex
					}
				}
				if int(f) < firstPart+kLeft {
					subFixed[i] = 0
				} else {
					subFixed[i] = 1
				}
			}
		}
	}
	subC := partition.Constraint{Epsilon: epsLevel, FixedSide: subFixed}
	p := bipartitionSub(ctx, sub, opts, rng, subC)

	// The left group holds kLeft of the k parts and the right group
	// kRight, each part bounded by m at this level's ε: the split is
	// feasible while the left weight lies in [w − kRight·m, kLeft·m].
	// FM refines under the bisection contract, which pulls toward an
	// even split, so the band is restored after it as well as before.
	w := sub.TotalVertexWeight()
	m := subC.MaxSideWeight(w, k)
	lo, hi := w-int64(kRight)*m, int64(kLeft)*m
	if err := p.Validate(sub); err == nil {
		if err := fitSplit(sub, p, lo, hi, subFixed); err != nil {
			return err
		}
		if ctx.Err() == nil {
			_, ferr := fm.ImproveCtx(ctx, sub, p, fm.Options{Constraint: subC})
			_ = ferr // refinement is best-effort
			if err := fitSplit(sub, p, lo, hi, subFixed); err != nil {
				return err
			}
		}
	}

	var left, right []int
	for i, v := range origOf {
		if p.Side(i) == partition.Left {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	// Guarantee enough vertices on each side for the part counts,
	// moving only vertices the fixed assignment allows across.
	mayGo := func(v int, toLeft bool) bool {
		f := opts.Constraint.Fixed(v)
		if f < 0 {
			return true
		}
		if toLeft {
			return int(f) < firstPart+kLeft
		}
		return int(f) >= firstPart+kLeft
	}
	for len(left) < kLeft && len(right) > kRight {
		moved := false
		for i := len(right) - 1; i >= 0; i-- {
			if mayGo(right[i], true) {
				left = append(left, right[i])
				right = append(right[:i], right[i+1:]...)
				moved = true
				break
			}
		}
		if !moved {
			return fmt.Errorf("kway: fixed assignment leaves fewer than %d movable vertices for parts [%d, %d)", kLeft, firstPart, firstPart+kLeft)
		}
	}
	for len(right) < kRight && len(left) > kLeft {
		moved := false
		for i := len(left) - 1; i >= 0; i-- {
			if mayGo(left[i], false) {
				right = append(right, left[i])
				left = append(left[:i], left[i+1:]...)
				moved = true
				break
			}
		}
		if !moved {
			return fmt.Errorf("kway: fixed assignment leaves fewer than %d movable vertices for parts [%d, %d)", kRight, firstPart+kLeft, firstPart+k)
		}
	}
	if err := split(ctx, h, left, firstPart, kLeft, part, opts, rng, epsLevel); err != nil {
		return err
	}
	return split(ctx, h, right, firstPart+kLeft, kRight, part, opts, rng, epsLevel)
}

// fitSplit moves the cheapest vertices across until the left weight of
// p lies in [lo, hi], and moves none when it already does. Fixed
// vertices stay put, so the band may stay out of reach.
func fitSplit(sub *hypergraph.Hypergraph, p *partition.Bipartition, lo, hi int64, fixed []int8) error {
	if lw, _ := partition.SideWeights(sub, p); lw >= lo && lw <= hi {
		return nil
	}
	target := lo + (hi-lo)/2
	if _, err := rebalance.ToTargetFixed(sub, p, target, target-lo, fixed); err != nil {
		return fmt.Errorf("kway: %w", err)
	}
	return nil
}

// bipartitionSub cuts an induced sub-hypergraph, falling back to a
// fixed-respecting alternating assignment for degenerate subsets.
func bipartitionSub(ctx context.Context, sub *hypergraph.Hypergraph, opts Options, rng *rand.Rand, c partition.Constraint) *partition.Bipartition {
	if sub.NumVertices() >= 2 {
		res, err := core.BipartitionCtx(ctx, sub, core.Options{
			Starts:        opts.Starts,
			Seed:          rng.Int63(),
			Threshold:     10,
			BalancedBFS:   true,
			Completion:    core.CompletionWeighted,
			Parallelism:   opts.Parallelism,
			KernelWorkers: opts.KernelWorkers,
			Constraint:    c,
		})
		if err == nil {
			return res.Partition
		}
	}
	p := partition.New(sub.NumVertices())
	free := 0
	for i := 0; i < sub.NumVertices(); i++ {
		switch f := c.Fixed(i); {
		case f == 0:
			p.Assign(i, partition.Left)
		case f > 0:
			p.Assign(i, partition.Right)
		default:
			if free%2 == 0 {
				p.Assign(i, partition.Left)
			} else {
				p.Assign(i, partition.Right)
			}
			free++
		}
	}
	return p
}

// induce builds the sub-hypergraph on a vertex subset: nets keep only
// their pins inside the subset and survive with ≥ 2 pins.
func induce(h *hypergraph.Hypergraph, vertices []int) (*hypergraph.Hypergraph, []int) {
	index := make(map[int]int, len(vertices))
	for i, v := range vertices {
		index[v] = i
	}
	b := hypergraph.NewBuilder(len(vertices))
	for i, v := range vertices {
		b.SetVertexWeight(i, h.VertexWeight(v))
	}
	seen := map[int]bool{}
	pins := make([]int, 0, 16)
	for _, v := range vertices {
		for _, e := range h.VertexEdges(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			pins = pins[:0]
			for _, u := range h.EdgePins(e) {
				if i, ok := index[u]; ok {
					pins = append(pins, i)
				}
			}
			if len(pins) >= 2 {
				ne := b.AddEdge(pins...)
				b.SetEdgeWeight(ne, h.EdgeWeight(e))
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic("kway: induced sub-hypergraph build: " + err.Error())
	}
	origOf := make([]int, len(vertices))
	copy(origOf, vertices)
	return sub, origOf
}

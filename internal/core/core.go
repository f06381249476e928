// Package core implements Algorithm I of Kahng's "Fast Hypergraph
// Partition" (DAC 1989): an O(n²) heuristic for hypergraph min-cut
// bipartitioning based on the intersection graph G dual to the input
// hypergraph H.
//
// The pipeline, following Section 2 of the paper:
//
//  1. Build the intersection graph G (one vertex per net; nets adjacent
//     iff they share a module), optionally excluding nets at or above a
//     size threshold (Section 3 argues k ≥ 10 is safe).
//  2. Pick a random vertex u of G and BFS to a furthest vertex v — a
//     "random longest BFS path", which for bounded-degree random graphs
//     has depth diam(G) − O(1) with probability near 1.
//  3. Run BFS from u and v simultaneously until the expanding sets meet;
//     this cuts G into V_L and V_R and identifies the boundary set B of
//     G-vertices adjacent across the cut. Every net not in B has all of
//     its modules placed on one side: a partial bipartition of H that is
//     expected to place all but a constant proportion of the modules.
//  4. Build the bipartite boundary graph G′ on B (cross edges only) and
//     complete the partition: each boundary net becomes a winner (stays
//     uncut; its modules go to its side) or a loser (crosses the cut).
//     The paper's Complete-Cut greedy — repeatedly take a minimum-degree
//     vertex as winner and mark its neighbours losers — is within one of
//     the optimum completion per connected component of G′. The library
//     additionally offers the exact optimum completion (König minimum
//     vertex cover) and the weight-balancing "engineer's method".
//  5. Modules belonging only to losers (or to no included net) are
//     packed onto the lighter side.
//
// Multi-start (Options.Starts) repeats steps 2–5 over several random
// longest paths and keeps the best result, as in the paper's test runs
// (which examined 50 random longest paths). Steps 3–5 are a pure
// function of the endpoint pair, so each distinct pair is solved once
// per call and later starts drawing it share that start's Result.
// Likewise each of step 2's two BFS sweeps is a pure function of its
// source, so each source is swept once per call, and the sweeps of 64
// starts run together as one bit-parallel BFS.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// Completion selects the rule used to partition the boundary set.
type Completion int

// Completion rules.
const (
	// CompletionGreedy is the paper's Complete-Cut rule: repeatedly pick
	// a minimum-degree vertex of the boundary graph as a winner, mark
	// its neighbours losers, delete all of them. Provably within one of
	// optimum per connected component of the boundary graph.
	CompletionGreedy Completion = iota
	// CompletionExact computes the optimum completion: losers form a
	// minimum vertex cover of the bipartite boundary graph, found via
	// Hopcroft–Karp matching and König's theorem. O(E·√V) on the
	// boundary graph.
	CompletionExact
	// CompletionWeighted is the paper's "engineer's method" (Section 3):
	// the next winner is the smallest-degree remaining vertex on the
	// side of the partial bipartition currently having less total
	// module weight, trading slightly higher cutsize for weight balance.
	CompletionWeighted
)

// String names the completion rule.
func (c Completion) String() string {
	switch c {
	case CompletionGreedy:
		return "greedy"
	case CompletionExact:
		return "exact"
	case CompletionWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("Completion(%d)", int(c))
	}
}

// Objective selects what multi-start minimizes.
type Objective int

// Objectives.
const (
	// MinCut minimizes the number of crossing nets (ties: lower weight
	// imbalance). The paper's primary objective.
	MinCut Objective = iota
	// MinQuotient minimizes cut / min(|V_L|,|V_R|), the quotient-cut
	// metric the paper's Section 5 proposes studying.
	MinQuotient
)

// String names the objective.
func (o Objective) String() string {
	if o == MinQuotient {
		return "quotient"
	}
	return "cut"
}

// Options configures Algorithm I.
type Options struct {
	// Starts is the number of random longest BFS paths to examine
	// (Section 5 extension; the paper's tests used 50). Values < 1 are
	// treated as 1.
	Starts int
	// Threshold excludes nets with at least this many pins from the
	// intersection graph (0 disables). The paper's Section 3 shows
	// thresholds as low as 10 cost very little expected cutsize.
	Threshold int
	// Completion selects the boundary completion rule.
	Completion Completion
	// Objective selects what multi-start minimizes.
	Objective Objective
	// BalancedBFS switches the double-BFS frontier policy from strict
	// alternation (the paper's prescription, the default) to
	// smaller-side-first expansion. Ablated in the benchmark suite.
	BalancedBFS bool
	// Seed seeds the random source; runs are deterministic per seed.
	// Each start draws from its own stream (see internal/engine), so
	// the result does not depend on Parallelism.
	Seed int64
	// Parallelism is the number of workers running starts concurrently;
	// values < 1 mean GOMAXPROCS. It affects wall time only, never the
	// result.
	Parallelism int
	// Deprecated: KernelWorkers is ignored; each start runs one serial
	// dual build and one serial double BFS. It remains only because the
	// benchmark module still sets it.
	KernelWorkers int
	// Constraint is the unified balance contract. With fixed vertices the
	// double-BFS endpoints are drawn from nets touching Left- and
	// Right-fixed modules (so the G-cut grows outward from the pinned
	// regions), and every start's completed partition is repaired onto
	// the contract — pins restored, sides within Constraint.MaxSideWeight
	// — before scoring. The zero value preserves historical behavior
	// exactly.
	Constraint partition.Constraint
	// Checkpoint, when non-nil, journals every completed start into its
	// sink and resumes from its recovered state — see internal/engine.
	// A resumed run returns the same Result an uninterrupted run would,
	// except DistinctPairs, BitsetBoundaries and ProbeSweeps, which
	// count the pairs this call solved and the sources it swept: every
	// source of each block of 64 starts it probed, skipped starts'
	// included.
	// Disconnected instances bypass the engine (the outcome is
	// start-independent and instant), so no journal is written for them.
	Checkpoint *engine.CheckpointIO
}

// Stats reports per-run diagnostics matching the quantities the paper's
// analysis tracks.
type Stats struct {
	// GVertices and GEdges describe the (filtered) intersection graph.
	GVertices, GEdges int
	// BitsetDual reports that the intersection graph was dense enough to
	// be held as bitset rows rather than CSR lists (see
	// intersect.BuildCounted). The partition does not depend on it.
	BitsetDual bool
	// ExcludedNets is the number of nets dropped by the size threshold.
	ExcludedNets int
	// Disconnected reports that the intersection graph was disconnected,
	// i.e. a zero-cut partition of the included nets exists (the paper's
	// pathological c = 0 case); BFS "finds the unconnectedness".
	Disconnected bool
	// BFSDepth is the depth of the best start's longest BFS path — the
	// pseudo-diameter estimate of G.
	BFSDepth int
	// BoundarySize is the size |B| of the best start's boundary set.
	BoundarySize int
	// StartsRun is the number of starts actually executed.
	StartsRun int
	// DistinctPairs is the number of distinct double-BFS endpoint pairs
	// the executed starts drew; each was solved once (see
	// BipartitionCtx). Zero when the intersection graph is disconnected
	// and no BFS runs.
	DistinctPairs int
	// BitsetBoundaries is the number of those distinct pairs whose
	// boundary graph G′ was dense enough to be held as bitset rows (see
	// buildBoundaryGraphBitset); their completion runs on word
	// operations. The partition does not depend on it.
	BitsetBoundaries int
	// ProbeSweeps is the number of distinct BFS sources the random
	// longest-path probe swept; each was swept once (see BipartitionCtx).
	// The probe draws the paths of 64 starts at a time, so a call that
	// ran only some starts of a block (cancelled or resumed) counts the
	// sources of all of them; a full run counts the start vertices and
	// their far vertices, at most twice the starts. Zero when the
	// intersection graph is disconnected or fixed vertices seed the
	// starts.
	ProbeSweeps int
	// Repaired reports that the best start needed the degenerate-side
	// repair: the completion placed every module on one side (possible
	// when the G-cut leaves no non-boundary nets on a side — the
	// paper's theorem explicitly assumes "non-empty node sets on either
	// side of the boundary"). When set, Losers no longer upper-bounds
	// the crossing nets.
	Repaired bool
	// Engine reports how the multi-start engine executed the run:
	// starts completed, winning start index, per-start cuts, wall and
	// summed per-start CPU time, and whether cancellation cut the run
	// short.
	Engine engine.Stats
}

// Result is the outcome of Algorithm I.
type Result struct {
	// Partition is the final complete bipartition of the modules.
	Partition *partition.Bipartition
	// CutSize is the number of nets of the input hypergraph crossing
	// Partition, recomputed from scratch (it therefore includes any
	// threshold-excluded nets that cross).
	CutSize int
	// Losers lists the boundary nets the completion chose to cross the
	// cut, ascending by net index. Every crossing included net is a
	// loser, though a loser may coincidentally end up uncut when its
	// modules are all claimed by one side.
	Losers []int
	// Boundary lists the boundary-set nets of the winning start,
	// ascending by net index.
	Boundary []int
	// Stats carries diagnostics.
	Stats Stats
}

// Bipartition runs Algorithm I on h and returns the best result over
// opts.Starts random longest paths.
//
// Errors are returned only for degenerate inputs on which no proper
// bipartition exists (fewer than two vertices).
func Bipartition(h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	return BipartitionCtx(context.Background(), h, opts)
}

// BipartitionCtx is Bipartition with cancellation: starts fan out over
// opts.Parallelism workers, and when ctx expires the best result among
// the starts that completed is returned (start 0 always runs), with
// Stats.Engine.Cancelled set, rather than an error.
//
// Random longest BFS paths keep landing on the same few endpoint pairs,
// and everything a start does after drawing its pair is deterministic,
// so the call remembers each pair's Result and a later start drawing
// the same pair returns it instead of solving again. The engine only
// scores and compares results, so sharing one changes no output at any
// Parallelism. The probe that draws a pair is shared the same way:
// the first start of each block of 64 start indices draws the random
// longest paths of the whole block, sweeping every BFS source not yet
// swept in one bit-parallel pass, so a call sweeps each source once.
func BipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("core: hypergraph has %d vertices; need at least 2 to bipartition", h.NumVertices())
	}

	ig := intersect.Build(h, intersect.Options{Threshold: opts.Threshold})
	return bipartitionDual(ctx, h, ig, opts)
}

// bipartitionDual is BipartitionCtx on an intersection graph already
// built from h under opts.Threshold.
func bipartitionDual(ctx context.Context, h *hypergraph.Hypergraph, ig *intersect.Result, opts Options) (*Result, error) {
	baseStats := Stats{
		GVertices:    ig.G.NumVertices(),
		GEdges:       ig.G.NumEdges(),
		BitsetDual:   ig.G.Bitset(),
		ExcludedNets: len(ig.Excluded),
	}

	// Degenerate or disconnected intersection graphs admit a zero-cut
	// partition of the included nets; handle them by component packing
	// rather than BFS. The outcome is start-independent, so the engine
	// is bypassed and a single synthetic start is reported.
	if ig.G.NumVertices() == 0 || !ig.G.IsConnected() {
		res := packComponents(h, ig)
		if !opts.Constraint.IsZero() {
			if err := rebalance.Enforce(h, res.Partition, opts.Constraint); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			res.CutSize = partition.CutSize(h, res.Partition)
		}
		res.Stats = baseStats
		res.Stats.Disconnected = true
		res.Stats.StartsRun = 1
		res.Stats.Engine = engine.Stats{
			StartsRequested: 1,
			StartsRun:       1,
			BestStart:       0,
			Cuts:            []int{res.CutSize},
			Parallelism:     1,
		}
		return res, nil
	}

	seeds := newSeeder(h, ig, opts)
	// The repair's vertex order depends on h alone; every start's
	// repair shares one.
	var order *rebalance.Order
	if opts.Constraint.HasBalance() {
		order = rebalance.NewOrder(h)
	}
	var memoMu sync.Mutex // guards memo and bitsetBoundaries
	memo := make(map[[2]int]*Result)
	bitsetBoundaries := 0
	best, es, err := engine.Run(ctx, engine.Spec[*Result]{
		Name:        "algo1",
		Starts:      opts.Starts,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		Run: func(_ context.Context, start int, rng *rand.Rand, scratch *engine.Scratch) (*Result, error) {
			u, v, depth := seeds.path(start, rng)
			pair := [2]int{u, v}
			memoMu.Lock()
			res, ok := memo[pair]
			memoMu.Unlock()
			if ok {
				return res, nil
			}
			res, err := solvePair(h, ig, u, v, seeds.depth(u, v, depth), opts, order, scratch)
			if err != nil {
				return nil, err
			}
			memoMu.Lock()
			// Two workers may race on one pair; their results are equal,
			// and the first stored is the one every later start shares.
			if prev, ok := memo[pair]; ok {
				res = prev
			} else {
				memo[pair] = res
				bitsetBoundaries += res.Stats.BitsetBoundaries
			}
			memoMu.Unlock()
			return res, nil
		},
		Better:     func(a, b *Result) bool { return better(h, a, b, opts.Objective) },
		Cut:        func(r *Result) int { return r.CutSize },
		Checkpoint: opts.Checkpoint,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	best.Stats.GVertices = baseStats.GVertices
	best.Stats.GEdges = baseStats.GEdges
	best.Stats.BitsetDual = baseStats.BitsetDual
	best.Stats.ExcludedNets = baseStats.ExcludedNets
	best.Stats.StartsRun = es.StartsRun
	best.Stats.DistinctPairs = len(memo)
	best.Stats.BitsetBoundaries = bitsetBoundaries
	best.Stats.ProbeSweeps = seeds.probe.sweeps()
	best.Stats.Engine = es
	return best, nil
}

// better reports whether candidate a improves on b under the objective.
func better(h *hypergraph.Hypergraph, a, b *Result, obj Objective) bool {
	switch obj {
	case MinQuotient:
		qa := partition.QuotientCut(h, a.Partition)
		qb := partition.QuotientCut(h, b.Partition)
		if qa != qb {
			return qa < qb
		}
	default:
		if a.CutSize != b.CutSize {
			return a.CutSize < b.CutSize
		}
	}
	return partition.Imbalance(h, a.Partition) < partition.Imbalance(h, b.Partition)
}

// solvePair executes one start from its endpoint pair (u, v) at BFS
// distance depth: double-BFS cut, boundary completion, module
// assignment, repair, scoring. It draws no randomness. order is h's
// repair order (nil builds one per repair when needed); the scratch
// arena (may be nil) backs buffers that die with the start.
func solvePair(h *hypergraph.Hypergraph, ig *intersect.Result, u, v, depth int, opts Options, order *rebalance.Order, scratch *engine.Scratch) (*Result, error) {
	pb := partialFromCut(h, ig, u, v, opts.BalancedBFS, opts.Completion != CompletionExact, scratch)

	var winner []bool
	var p *partition.Bipartition
	switch opts.Completion {
	case CompletionExact:
		winner = CompleteCutExact(pb.Boundary)
	case CompletionWeighted:
		winner, p = completeCut(h, pb, scratch)
	default:
		winner, _ = completeCut(nil, pb, scratch)
	}
	if p == nil {
		p, _, _ = pb.BaseAssignment(h)
	}
	losers := pb.CommitWinners(h, p, winner)
	assignLeftovers(h, p, scratch)

	repaired := false
	if l, r, _ := p.Counts(); l == 0 || r == 0 {
		// Degenerate completion: every module landed on one side. Fall
		// back to splitting modules by the majority side of their nets
		// under the G-cut — the geometry of the cut without the
		// completion — and keep whichever partition cuts less.
		repaired = true
		q := majorityFallback(h, pb)
		repairNonempty(h, p)
		repairNonempty(h, q)
		if partition.CutSize(h, q) < partition.CutSize(h, p) {
			p = q
		}
	}
	if !opts.Constraint.IsZero() {
		// The paper's pipeline knows nothing of pins or ε; the shared
		// greedy repair restores the contract before scoring, so every
		// start competes on constraint-respecting partitions.
		if err := rebalance.EnforceOrdered(h, p, opts.Constraint, order); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	res := &Result{
		Partition: p,
		CutSize:   partition.CutSize(h, p),
		Losers:    losers,
		Boundary:  append([]int(nil), pb.Boundary.Nets...),
	}
	res.Stats.BFSDepth = depth
	res.Stats.BoundarySize = len(pb.Boundary.Nets)
	res.Stats.Repaired = repaired
	if pb.Boundary.G.Bitset() {
		res.Stats.BitsetBoundaries = 1
	}
	return res, nil
}

// majorityFallback assigns each module to the side held by the
// majority of its included nets under the G-cut labeling (ties and
// netless modules go by weight balance afterwards).
func majorityFallback(h *hypergraph.Hypergraph, pb *Partial) *partition.Bipartition {
	p := partition.New(h.NumVertices())
	for m := 0; m < h.NumVertices(); m++ {
		votes := 0
		for _, e := range h.VertexEdges(m) {
			gi := pb.IG.GVertexOf[e]
			if gi < 0 {
				continue
			}
			if pb.NetSide[gi] == partition.Left {
				votes++
			} else {
				votes--
			}
		}
		switch {
		case votes > 0:
			p.Assign(m, partition.Left)
		case votes < 0:
			p.Assign(m, partition.Right)
		}
	}
	assignLeftovers(h, p, nil)
	return p
}

// assignLeftovers places every still-unassigned module (modules
// belonging only to loser or excluded nets, or to no net at all) on the
// lighter side, heaviest first — the first-fit-decreasing flavor of the
// paper's weight packing. The leftover list leases from the scratch
// arena when one is available.
func assignLeftovers(h *hypergraph.Hypergraph, p *partition.Bipartition, scratch *engine.Scratch) {
	leftovers := leaseInts(scratch, h.NumVertices())[:0]
	for m := 0; m < h.NumVertices(); m++ {
		if p.Side(m) == partition.Unassigned {
			leftovers = append(leftovers, m)
		}
	}
	if len(leftovers) == 0 {
		return
	}
	sortByWeightDesc(h, leftovers)
	lw, rw := partition.SideWeights(h, p)
	for _, m := range leftovers {
		if lw <= rw {
			p.Assign(m, partition.Left)
			lw += h.VertexWeight(m)
		} else {
			p.Assign(m, partition.Right)
			rw += h.VertexWeight(m)
		}
	}
}

// repairNonempty guarantees both sides are nonempty by moving the
// single module whose move increases the cut the least (the first such
// module on ties). Only degenerate inputs (e.g. a single net spanning
// everything) reach this path. The destination side is empty, so no
// net crosses before the move, and after it a net of the moved module
// crosses iff it has another pin on the source side: each candidate's
// cut comes from its own nets' pin counts, O(pins) in all.
func repairNonempty(h *hypergraph.Hypergraph, p *partition.Bipartition) {
	l, r, _ := p.Counts()
	if l > 0 && r > 0 {
		return
	}
	var from, to partition.Side
	if l == 0 {
		from, to = partition.Right, partition.Left
	} else {
		from, to = partition.Left, partition.Right
	}
	onFrom := make([]int, h.NumEdges())
	for e := range onFrom {
		for _, m := range h.EdgePins(e) {
			if p.Side(m) == from {
				onFrom[e]++
			}
		}
	}
	bestM, bestCut := -1, 0
	for m := 0; m < h.NumVertices(); m++ {
		if p.Side(m) != from {
			continue
		}
		cut := 0
		for _, e := range h.VertexEdges(m) {
			if onFrom[e] > 1 {
				cut++
			}
		}
		if bestM == -1 || cut < bestCut {
			bestM, bestCut = m, cut
		}
	}
	if bestM >= 0 {
		p.Assign(bestM, to)
	}
}

// sortByWeightDesc sorts module ids by descending weight, ascending id
// among equal weights — a total order, so the result is deterministic.
func sortByWeightDesc(h *hypergraph.Hypergraph, ms []int) {
	slices.SortFunc(ms, func(a, b int) int {
		if c := cmp.Compare(h.VertexWeight(b), h.VertexWeight(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Package fasthgp is a Go implementation of "Fast Hypergraph
// Partition" (Andrew B. Kahng, 26th Design Automation Conference,
// 1989): an O(n²) provably-good heuristic for hypergraph min-cut
// bipartitioning built on the intersection graph dual to the input
// netlist, together with the full ecosystem the paper's evaluation
// relies on — Kernighan–Lin, Fiduccia–Mattheyses and simulated-
// annealing baselines, synthetic netlist generators, min-cut placement
// with terminal propagation, and a benchmark harness regenerating the
// paper's tables.
//
// # Quick start
//
//	b := fasthgp.NewBuilder(4)
//	b.AddEdge(0, 1)       // nets are vertex subsets
//	b.AddEdge(1, 2, 3)
//	h, err := b.Build()
//	...
//	res, err := fasthgp.Partition(h, fasthgp.Options{Starts: 50})
//	fmt.Println(res.CutSize, res.Partition.Side(0))
//
// The root package is a curated facade; the implementation lives in
// internal packages (internal/core holds Algorithm I itself).
package fasthgp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"fasthgp/internal/anneal"
	"fasthgp/internal/baseline"
	"fasthgp/internal/checkpoint"
	"fasthgp/internal/cluster"
	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/flowpart"
	"fasthgp/internal/fm"
	"fasthgp/internal/gen"
	"fasthgp/internal/granular"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
	"fasthgp/internal/kway"
	"fasthgp/internal/multilevel"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
	"fasthgp/internal/place"
	"fasthgp/internal/rebalance"
	"fasthgp/internal/resilience"
	"fasthgp/internal/spectral"
	"fasthgp/internal/verify"
)

// Hypergraph is the netlist data structure: vertices are modules,
// hyperedges are signal nets. Build one with NewBuilder or FromEdges.
type Hypergraph = hypergraph.Hypergraph

// Builder incrementally assembles a Hypergraph.
type Builder = hypergraph.Builder

// NewBuilder returns a Builder for a hypergraph with n vertices.
func NewBuilder(n int) *Builder { return hypergraph.NewBuilder(n) }

// FromEdges builds an unweighted hypergraph from a pin list per edge.
func FromEdges(n int, edges [][]int) (*Hypergraph, error) {
	return hypergraph.FromEdges(n, edges)
}

// Bipartition assigns each module to a side of the cut.
type Bipartition = partition.Bipartition

// Side identifies a partition side.
type Side = partition.Side

// Side values.
const (
	Unassigned = partition.Unassigned
	Left       = partition.Left
	Right      = partition.Right
)

// NewBipartition returns a Bipartition over n vertices with every
// vertex Unassigned.
func NewBipartition(n int) *Bipartition { return partition.New(n) }

// Constraint is the unified balance contract every partitioner in the
// registry honors: an ε-imbalance bound (each side weighs at most
// (1+Epsilon)·⌈w(V)/2⌉, or ⌈w(V)/K⌉ per part K-way) plus an optional
// fixed-vertex assignment (FixedSide[v] pins vertex v to a side, −1
// leaves it free). It is the one balance setting of every partitioner.
// The zero value is unconstrained and preserves each algorithm's
// historical behavior exactly.
type Constraint = partition.Constraint

// FreeVertex marks an unpinned vertex in Constraint.FixedSide.
const FreeVertex = partition.FreeVertex

// Options configures Algorithm I (see internal/core for details).
type Options = core.Options

// Completion selects the boundary-completion rule of Algorithm I.
type Completion = core.Completion

// Completion rules: the paper's greedy Complete-Cut, the exact König
// optimum, and the weight-balancing engineer's method.
const (
	CompletionGreedy   = core.CompletionGreedy
	CompletionExact    = core.CompletionExact
	CompletionWeighted = core.CompletionWeighted
)

// Objective selects what multi-start minimizes.
type Objective = core.Objective

// Objectives.
const (
	MinCut      = core.MinCut
	MinQuotient = core.MinQuotient
)

// Result is the outcome of Algorithm I.
type Result = core.Result

// EngineStats reports how the multi-start engine executed a run:
// starts requested and completed, the winning start index, the
// per-start cuts, the worker count, wall/CPU time, and whether the run
// was cut short by its context. Every partitioner embeds one in its
// Result. The engine guarantees the same Result for the same Options
// regardless of Parallelism: each start draws from its own RNG stream
// and ties break toward the lowest start index.
type EngineStats = engine.Stats

// CheckpointIO binds a run to a durable checkpoint sink and, on
// resume, the state recovered from its journal. PartitionCheckpointed
// manages one for you; build your own only for custom sinks.
type CheckpointIO = engine.CheckpointIO

// CheckpointState is the progress recovered from a checkpoint journal:
// completed starts, their cuts, and which of them was the best. It
// holds no result; a resume re-runs the best start to recover it.
type CheckpointState = engine.RunState

// Partition runs Algorithm I — the paper's O(n²) intersection-graph
// heuristic — and returns the best bipartition over opts.Starts random
// longest BFS paths, fanned across opts.Parallelism workers.
func Partition(h *Hypergraph, opts Options) (*Result, error) {
	return core.Bipartition(h, opts)
}

// PartitionCtx is Partition with cancellation: when ctx expires the
// best result among the starts completed so far is returned instead of
// an error (the first start always runs to completion).
func PartitionCtx(ctx context.Context, h *Hypergraph, opts Options) (*Result, error) {
	return core.BipartitionCtx(ctx, h, opts)
}

// CutSize returns the number of nets crossing p.
func CutSize(h *Hypergraph, p *Bipartition) int { return partition.CutSize(h, p) }

// WeightedCutSize returns the total weight of nets crossing p.
func WeightedCutSize(h *Hypergraph, p *Bipartition) int64 {
	return partition.WeightedCutSize(h, p)
}

// Imbalance returns the absolute vertex-weight difference between the
// sides of p.
func Imbalance(h *Hypergraph, p *Bipartition) int64 { return partition.Imbalance(h, p) }

// QuotientCut returns cut(p) / min(|V_L|, |V_R|), the quotient-cut
// objective discussed in the paper's Section 5.
func QuotientCut(h *Hypergraph, p *Bipartition) float64 { return partition.QuotientCut(h, p) }

// KLOptions configures the Kernighan–Lin baseline.
type KLOptions = kl.Options

// KLResult is the Kernighan–Lin outcome.
type KLResult = kl.Result

// KL bipartitions h with the Kernighan–Lin pair-swap heuristic
// (Schweikert–Kernighan net model) from a random balanced bisection.
func KL(h *Hypergraph, opts KLOptions) (*KLResult, error) { return kl.Bisect(h, opts) }

// KLCtx is KL with cancellation (best completed start wins).
func KLCtx(ctx context.Context, h *Hypergraph, opts KLOptions) (*KLResult, error) {
	return kl.BisectCtx(ctx, h, opts)
}

// FMOptions configures the Fiduccia–Mattheyses baseline.
type FMOptions = fm.Options

// FMResult is the Fiduccia–Mattheyses outcome.
type FMResult = fm.Result

// FM bipartitions h with the Fiduccia–Mattheyses gain-bucket heuristic
// from a random balanced bisection.
func FM(h *Hypergraph, opts FMOptions) (*FMResult, error) { return fm.Bisect(h, opts) }

// FMCtx is FM with cancellation (best completed start wins).
func FMCtx(ctx context.Context, h *Hypergraph, opts FMOptions) (*FMResult, error) {
	return fm.BisectCtx(ctx, h, opts)
}

// AnnealOptions configures the simulated-annealing baseline.
type AnnealOptions = anneal.Options

// AnnealResult is the annealing outcome.
type AnnealResult = anneal.Result

// Anneal bipartitions h by simulated annealing.
func Anneal(h *Hypergraph, opts AnnealOptions) (*AnnealResult, error) {
	return anneal.Bisect(h, opts)
}

// AnnealCtx is Anneal with cancellation: each walk returns its best
// configuration so far when ctx expires, and the best completed walk
// wins.
func AnnealCtx(ctx context.Context, h *Hypergraph, opts AnnealOptions) (*AnnealResult, error) {
	return anneal.BisectCtx(ctx, h, opts)
}

// FlowOptions configures the flow-based partitioner.
type FlowOptions = flowpart.Options

// FlowResult is the flow-partition outcome.
type FlowResult = flowpart.Result

// Flow bipartitions h by exact minimum s–t net cuts over several seed
// pairs (Dinic max-flow on the standard net model) — the "network
// flow" family the paper compares against.
func Flow(h *Hypergraph, opts FlowOptions) (*FlowResult, error) {
	return flowpart.Bisect(h, opts)
}

// FlowCtx is Flow with cancellation (best completed seed pair wins).
func FlowCtx(ctx context.Context, h *Hypergraph, opts FlowOptions) (*FlowResult, error) {
	return flowpart.BisectCtx(ctx, h, opts)
}

// MinNetCut computes an exact minimum-weight net cut separating
// modules s and t.
func MinNetCut(h *Hypergraph, s, t int) (*Bipartition, int64, error) {
	return flowpart.MinNetCut(h, s, t)
}

// SpectralOptions configures the spectral partitioner.
type SpectralOptions = spectral.Options

// SpectralResult is the spectral outcome (including the Fiedler
// coordinates).
type SpectralResult = spectral.Result

// Spectral bipartitions h by a Fiedler-vector sweep cut on the clique
// expansion — the "graph space" eigenvector family the paper cites.
func Spectral(h *Hypergraph, opts SpectralOptions) (*SpectralResult, error) {
	return spectral.Bisect(h, opts)
}

// SpectralCtx is Spectral with cancellation: the power iteration stops
// at ctx expiry and sweeps the vector it has (best completed start
// wins).
func SpectralCtx(ctx context.Context, h *Hypergraph, opts SpectralOptions) (*SpectralResult, error) {
	return spectral.BisectCtx(ctx, h, opts)
}

// RandomBisection returns a uniformly random balanced bisection and its
// cutsize — the paper's "even a random cut" control.
func RandomBisection(h *Hypergraph, rng *rand.Rand) (*Bipartition, int, error) {
	return baseline.RandomBisection(h, rng)
}

// MultilevelOptions configures the multilevel partitioner.
type MultilevelOptions = multilevel.Options

// MultilevelResult is the multilevel outcome.
type MultilevelResult = multilevel.Result

// Multilevel bipartitions h with the multilevel scheme (heavy-
// connectivity coarsening → Algorithm I at the coarsest level → FM
// refinement during uncoarsening) — the library's extension beyond the
// paper and its strongest in-repo comparison point.
func Multilevel(h *Hypergraph, opts MultilevelOptions) (*MultilevelResult, error) {
	return multilevel.Bisect(h, opts)
}

// MultilevelCtx is Multilevel with cancellation: an interrupted V-cycle
// still projects its partition to the input hypergraph (skipping
// further refinement), and the best completed cycle wins.
func MultilevelCtx(ctx context.Context, h *Hypergraph, opts MultilevelOptions) (*MultilevelResult, error) {
	return multilevel.BisectCtx(ctx, h, opts)
}

// KWayOptions configures K-way partitioning.
type KWayOptions = kway.Options

// KWayResult is a K-way partition with cut-net and connectivity
// metrics.
type KWayResult = kway.Result

// KWay splits h into opts.K parts by recursive bisection with
// proportional balance targets.
func KWay(h *Hypergraph, opts KWayOptions) (*KWayResult, error) {
	return kway.Partition(h, opts)
}

// KWayCtx is KWay with cancellation: after ctx expires each remaining
// split degrades to its cheapest cut, so a complete K-way labeling is
// still returned.
func KWayCtx(ctx context.Context, h *Hypergraph, opts KWayOptions) (*KWayResult, error) {
	return kway.PartitionCtx(ctx, h, opts)
}

// ErrConstraintInfeasible is returned (wrapped, with the reason) when a
// constraint provably admits no partition — e.g. one side's fixed
// vertices alone outweigh the ε bound.
var ErrConstraintInfeasible = rebalance.ErrInfeasible

// EnforceConstraint makes p satisfy c in place: fixed vertices are
// forced onto their pinned sides, then free vertices move off any side
// exceeding c's maximum side weight. It returns
// ErrConstraintInfeasible when no sequence of legal moves can succeed.
func EnforceConstraint(h *Hypergraph, p *Bipartition, c Constraint) error {
	return rebalance.Enforce(h, p, c)
}

// ReadNetlist parses a netlist in the library's text format.
func ReadNetlist(r io.Reader) (*Hypergraph, error) { return netio.Read(r) }

// WriteNetlist emits h in the library's text format.
func WriteNetlist(w io.Writer, h *Hypergraph) error { return netio.Write(w, h) }

// ReadNetlistFixed parses a netlist along with its fixed-vertex
// directives: fixed[v] is vertex v's pinned side, FreeVertex when free,
// and the slice is nil when the input pins nothing.
func ReadNetlistFixed(r io.Reader) (*Hypergraph, []int8, error) { return netio.ReadFixed(r) }

// ReadHMetis parses a hypergraph in the hMETIS .hgr benchmark format
// through the zero-copy streaming parser: one reusable chunk buffer, no
// per-line string or token materialization.
func ReadHMetis(r io.Reader) (*Hypergraph, error) { return netio.ParseHMetisStream(r) }

// ReadHMetisFile parses the .hgr file at path, memory-mapping it
// read-only where the platform allows (the file bytes become the parse
// buffer) and falling back to the streaming parser otherwise.
func ReadHMetisFile(path string) (*Hypergraph, error) { return netio.ReadHMetisFile(path) }

// WriteHMetis emits h in the hMETIS .hgr format.
func WriteHMetis(w io.Writer, h *Hypergraph) error { return netio.WriteHMetis(w, h) }

// ReadHMetisFix parses an hMETIS fix file (one part id per vertex, −1
// free) for a hypergraph with n vertices; nil when every vertex is free.
func ReadHMetisFix(r io.Reader, n int) ([]int8, error) { return netio.ReadHMetisFix(r, n) }

// WriteHMetisFix emits a fixed-vertex assignment in the hMETIS fix-file
// format.
func WriteHMetisFix(w io.Writer, fixed []int8) error { return netio.WriteHMetisFix(w, fixed) }

// Technology selects a synthetic circuit-profile family.
type Technology = gen.Technology

// Technologies, matching the paper's Table 1 rows.
const (
	PCB       = gen.PCB
	StdCell   = gen.StdCell
	GateArray = gen.GateArray
	Hybrid    = gen.Hybrid
)

// ProfileConfig parameterizes GenerateProfile.
type ProfileConfig = gen.ProfileConfig

// GenerateProfile builds a synthetic circuit-profile netlist with a
// logical cluster hierarchy — the stand-in for the paper's industry
// test suite.
func GenerateProfile(cfg ProfileConfig, rng *rand.Rand) (*Hypergraph, error) {
	return gen.Profile(cfg, rng)
}

// RandomConfig parameterizes GenerateRandom.
type RandomConfig = gen.RandomConfig

// GenerateRandom builds a uniform random hypergraph H(n, d, r).
func GenerateRandom(n int, cfg RandomConfig, rng *rand.Rand) (*Hypergraph, error) {
	return gen.Random(n, cfg, rng)
}

// PlantedConfig parameterizes GeneratePlanted.
type PlantedConfig = gen.PlantedConfig

// GeneratePlanted builds a "difficult" instance with a planted minimum
// cut (Bui et al. regime) and returns the planted crossing nets.
func GeneratePlanted(n int, cfg PlantedConfig, rng *rand.Rand) (*Hypergraph, []int, error) {
	return gen.PlantedCut(n, cfg, rng)
}

// PlaceOptions configures min-cut placement.
type PlaceOptions = place.Options

// Placement is a slot assignment on a grid.
type Placement = place.Placement

// PlaceMinCut places h by recursive min-cut bipartitioning (Breuer),
// optionally with Dunlop–Kernighan terminal propagation.
func PlaceMinCut(h *Hypergraph, opts PlaceOptions) (*Placement, error) {
	return place.MinCutPlace(h, opts)
}

// PlaceRandom scatters modules uniformly over a grid — the placement
// control baseline.
func PlaceRandom(h *Hypergraph, rows, cols int, rng *rand.Rand) (*Placement, error) {
	return place.RandomPlace(h, rows, cols, rng)
}

// HPWL returns the half-perimeter wirelength of a placement under the
// bounding-box net model.
func HPWL(h *Hypergraph, pl *Placement) int64 { return place.HPWL(h, pl) }

// ClusterOptions configures netlist clustering.
type ClusterOptions = cluster.Options

// ClusterResult describes a clustering: the labeling, the clustered
// hypergraph, and the absorption metric.
type ClusterResult = cluster.Result

// Cluster groups modules bottom-up by connectivity under a weight cap
// — the preprocessing step of clustering placement. Partition the
// returned ClusterResult.H and lift the result back with Project.
func Cluster(h *Hypergraph, opts ClusterOptions) (*ClusterResult, error) {
	return cluster.Cluster(h, opts)
}

// AlgoConfig carries the knobs shared by every bipartitioner for
// uniform invocation through the Algorithms registry. Algorithm-
// specific options (Algorithm I's completion rule, multilevel's flow
// switch, …) stay at their defaults; call the dedicated entry points
// to set those.
type AlgoConfig struct {
	// Starts is the multi-start count (values < 1 mean 1; for Flow it
	// is the number of seed pairs).
	Starts int
	// Seed makes the run deterministic.
	Seed int64
	// Parallelism is the engine worker count; values < 1 mean
	// GOMAXPROCS. Wall time only, never the result.
	Parallelism int
	// Constraint is the unified balance contract (ε-imbalance bound plus
	// fixed vertices) every registry algorithm honors; the zero value is
	// unconstrained. Checkpoint journals bind to it: a journal written
	// under one constraint refuses to resume a run under another.
	Constraint Constraint
	// Checkpoint, when non-nil, journals every start that finished
	// under a live context into its sink and resumes from its recovered
	// state: the best journaled start runs again first, the others are
	// skipped. Most callers want PartitionCheckpointed, which manages
	// the journal file; set this directly only to supply a custom sink.
	Checkpoint *CheckpointIO
}

// AlgoResult is the common projection of a bipartitioner's outcome.
type AlgoResult struct {
	// Partition is the bipartition found.
	Partition *Bipartition
	// CutSize is its cutsize.
	CutSize int
	// Engine reports the multi-start execution.
	Engine EngineStats
}

// Algorithm is one uniformly-invokable bipartitioner from the
// Algorithms registry.
type Algorithm struct {
	// Name is the registry key (matches the -algo flag of cmd/hgpart).
	Name string
	// Description is a one-line summary.
	Description string
	// Run executes the algorithm under the shared engine contract:
	// deterministic in (h, cfg) regardless of cfg.Parallelism, and
	// best-so-far (never an error) on ctx expiry.
	Run func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error)
}

// Algorithms returns the registry of bipartitioners, in presentation
// order. All entries run on the shared multi-start engine, so the
// determinism, tie-break, and cancellation semantics of EngineStats
// apply uniformly. Every entry is additionally wrapped in a recover
// boundary: a panic anywhere in the algorithm (engine starts have
// their own per-start boundary) comes back as a typed *PartitionError
// instead of crashing the caller.
func Algorithms() []Algorithm {
	algos := algorithmTable()
	for i := range algos {
		algos[i].Run = protectRun(algos[i].Name, algos[i].Run)
	}
	return algos
}

// protectRun is the registry's recover boundary (resilience.Protect):
// it converts a panic from the wrapped algorithm into a
// *resilience.PartitionError attributed to the whole run.
func protectRun(name string, run func(context.Context, *Hypergraph, AlgoConfig) (*AlgoResult, error)) func(context.Context, *Hypergraph, AlgoConfig) (*AlgoResult, error) {
	return func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (res *AlgoResult, err error) {
		perr := resilience.Protect(name, resilience.WholeRun, func() error {
			var inner error
			res, inner = run(ctx, h, cfg)
			return inner
		})
		if perr != nil {
			return nil, perr
		}
		return res, nil
	}
}

// algorithmTable is the unwrapped registry.
func algorithmTable() []Algorithm {
	return []Algorithm{
		{
			Name:        "algo1",
			Description: "Algorithm I: intersection-graph double-BFS heuristic (the paper)",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := core.BipartitionCtx(ctx, h, core.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Stats.Engine}, nil
			},
		},
		{
			Name:        "kl",
			Description: "Kernighan–Lin pair swaps (Schweikert–Kernighan net model)",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := kl.BisectCtx(ctx, h, kl.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "fm",
			Description: "Fiduccia–Mattheyses gain buckets",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := fm.BisectCtx(ctx, h, fm.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "anneal",
			Description: "simulated annealing with soft balance penalty",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := anneal.BisectCtx(ctx, h, anneal.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "flow",
			Description: "exact min s–t net cuts over random seed pairs (Dinic)",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := flowpart.BisectCtx(ctx, h, flowpart.Options{SeedPairs: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "spectral",
			Description: "Fiedler-vector sweep cut on the clique expansion",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := spectral.BisectCtx(ctx, h, spectral.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "multilevel",
			Description: "coarsen → Algorithm I → FM refinement V-cycles",
			Run: func(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
				r, err := multilevel.BisectCtx(ctx, h, multilevel.Options{Starts: cfg.Starts, Seed: cfg.Seed, Parallelism: cfg.Parallelism, Constraint: cfg.Constraint, Checkpoint: cfg.Checkpoint})
				if err != nil {
					return nil, err
				}
				return &AlgoResult{Partition: r.Partition, CutSize: r.CutSize, Engine: r.Engine}, nil
			},
		},
		{
			Name:        "random",
			Description: "best of Starts uniformly random balanced bisections (control)",
			Run:         runRandomAlgo,
		},
	}
}

// runRandomAlgo is the registry's random-bisection control, run through
// the engine so it shares the determinism and cancellation contract.
func runRandomAlgo(ctx context.Context, h *Hypergraph, cfg AlgoConfig) (*AlgoResult, error) {
	if h.NumVertices() < 2 {
		return nil, fmt.Errorf("fasthgp: hypergraph has %d vertices; need at least 2", h.NumVertices())
	}
	if err := cfg.Constraint.Validate(h.NumVertices(), 2); err != nil {
		return nil, fmt.Errorf("fasthgp: %w", err)
	}
	best, es, err := engine.Run(ctx, engine.Spec[*AlgoResult]{
		Starts:      cfg.Starts,
		Parallelism: cfg.Parallelism,
		Seed:        cfg.Seed,
		Run: func(_ context.Context, _ int, rng *rand.Rand, _ *engine.Scratch) (*AlgoResult, error) {
			p := kl.SeedBisection(h, rng, cfg.Constraint)
			if err := rebalance.Enforce(h, p, cfg.Constraint); err != nil {
				return nil, fmt.Errorf("random: %w", err)
			}
			return &AlgoResult{Partition: p, CutSize: partition.CutSize(h, p)}, nil
		},
		Better: func(a, b *AlgoResult) bool {
			if a.CutSize != b.CutSize {
				return a.CutSize < b.CutSize
			}
			return partition.Imbalance(h, a.Partition) < partition.Imbalance(h, b.Partition)
		},
		Cut:        func(r *AlgoResult) int { return r.CutSize },
		Checkpoint: cfg.Checkpoint,
	})
	if err != nil {
		return nil, err
	}
	best.Engine = es
	return best, nil
}

// VerifyReport is the invariant oracle's account of a bipartition:
// recomputed cutsize, weighted cut, and per-side counts and weights.
type VerifyReport = verify.Report

// KWayVerifyReport is the oracle's account of a K-way labeling.
type KWayVerifyReport = verify.KWayReport

// Verify recomputes every invariant of p from scratch — side
// completeness, cutsize, weighted cut, side weights, and agreement with
// the incremental cut maintenance — and returns the recomputed metrics.
// A non-nil error means p (or the library) is broken; use it as the
// final gate after any partitioning run.
func Verify(h *Hypergraph, p *Bipartition) (*VerifyReport, error) {
	return verify.Check(h, p)
}

// VerifyCut is Verify plus a check that the claimed cutsize matches the
// recomputed one.
func VerifyCut(h *Hypergraph, p *Bipartition, claimed int) (*VerifyReport, error) {
	return verify.CheckCut(h, p, claimed)
}

// VerifyKWay validates a K-way labeling against the contract c read
// K-way — every part at most c.MaxSideWeight(w(V), k) when c carries an
// ε, every fixed vertex on its part id — and recomputes its cut-net
// count and connectivity objective.
func VerifyKWay(h *Hypergraph, part []int, k int, c Constraint) (*KWayVerifyReport, error) {
	return verify.CheckKWay(h, part, k, c)
}

// VerifyConstraint certifies p against the full contract c — validity,
// the ε bound when present, and the fixed assignment when present.
func VerifyConstraint(h *Hypergraph, p *Bipartition, c Constraint) (*VerifyReport, error) {
	return verify.CheckConstraint(h, p, c)
}

// PartitionError is the typed value a panic inside any partitioner is
// converted into at the library's recover boundaries: the algorithm
// name, the engine start index that panicked (resilience.WholeRun when
// the panic was outside any start), the panic value, and the captured
// stack. Retrieve it with errors.As; a multi-start run with panicking
// starts also lists them in EngineStats.Failures while degrading to
// the surviving starts.
type PartitionError = resilience.PartitionError

// PortfolioResult is the outcome of a PartitionPortfolio run: an
// oracle-certified partition plus the tier that produced it, whether
// the run degraded past its first choice, and a per-tier report.
type PortfolioResult = resilience.Result

// TierReport is one tier's account within a PortfolioResult.
type TierReport = resilience.TierReport

// ErrPortfolioExhausted is returned when no tier of a portfolio chain
// produced any oracle-certified candidate.
var ErrPortfolioExhausted = resilience.ErrExhausted

// PortfolioOptions configures PartitionPortfolio. The zero value runs
// the default chain at each tier's default start count, seed 0, under
// whatever deadline ctx carries.
type PortfolioOptions struct {
	// Chain is the ordered fallback chain by registry name, strongest
	// first (aliases: core/algI → algo1, sa → anneal, flowpart → flow).
	// Empty means multilevel → fm → algo1.
	Chain []string
	// Budget bounds the whole chain's wall time; each tier gets
	// (remaining budget)/(remaining tiers), with unused time rolling
	// forward. 0 means "inherit whatever deadline ctx carries".
	Budget time.Duration
	// Starts is each tier's multi-start count, as in AlgoConfig.
	Starts int
	// Seed is the portfolio seed; retries derive jittered per-attempt
	// seeds from it, and the whole run replays deterministically.
	Seed int64
	// Parallelism is each tier's engine worker count (0 = GOMAXPROCS);
	// wall time only, never the result.
	Parallelism int
	// Breakers, when set, is a circuit-breaker set shared across
	// portfolio runs: a tier that keeps failing is skipped outright (and
	// excluded from the budget split) until its cooldown admits a probe.
	// Meant for long-lived callers like hgpartd; one-shot runs don't
	// need it.
	Breakers *BreakerSet
	// Constraint runs every tier under the unified balance contract and
	// tightens the oracle gate to certify candidates against it: a tier
	// that moves a fixed vertex or overshoots the ε bound is treated as
	// having produced no result and the chain degrades past it.
	Constraint Constraint
}

// BreakerSet is a per-tier-name collection of circuit breakers; build
// one with NewBreakerSet and share it across PartitionPortfolio calls.
type BreakerSet = resilience.BreakerSet

// BreakerConfig tunes a BreakerSet's breakers (consecutive-failure
// threshold and open-state cooldown).
type BreakerConfig = resilience.BreakerConfig

// NewBreakerSet returns an empty breaker set; breakers are created
// closed, per tier name, on first use.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet { return resilience.NewBreakerSet(cfg) }

// ErrBreakerOpen marks a tier skipped because its breaker was open.
var ErrBreakerOpen = resilience.ErrBreakerOpen

// defaultChain is the default portfolio fallback chain: the strongest
// partitioner first, degrading toward the cheapest.
func defaultChain() []string { return []string{"multilevel", "fm", "algo1"} }

// ErrUnknownAlgorithm is returned, wrapped with the offending name, for
// a name that is neither a registry name nor an alias, the empty name
// included.
var ErrUnknownAlgorithm = errors.New("algorithm not in registry")

// resolveAlgorithm finds a registry entry by name or alias, wrapped in
// the recover boundary as Algorithms wraps it; it wraps only the entry
// it returns, since servers resolve a chain on every request.
func resolveAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "core", "algI":
		name = "algo1"
	case "sa":
		name = "anneal"
	case "flowpart":
		name = "flow"
	}
	for _, a := range algorithmTable() {
		if a.Name == name {
			a.Run = protectRun(a.Name, a.Run)
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("fasthgp: %w: %q", ErrUnknownAlgorithm, name)
}

// ParseChain parses a comma-separated portfolio chain such as
// "multilevel, fm,core" into registry names: each name is trimmed of
// surrounding space and resolved through its alias. An empty spec is
// the default chain; an empty or unknown name is an error wrapping
// ErrUnknownAlgorithm. Every tool that takes a chain as text parses it
// here.
func ParseChain(spec string) ([]string, error) {
	if spec == "" {
		return defaultChain(), nil
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		alg, err := resolveAlgorithm(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		names[i] = alg.Name
	}
	return names, nil
}

// PartitionPortfolio bipartitions h through a deadline-aware fallback
// chain. The chain is resolved and validated before any tier runs.
// Tiers run in order under the remaining budget; every candidate is
// certified by the verify oracle before it may be returned; a tier
// that panics or produces an invalid result is retried with capped
// exponential backoff and a fresh jittered seed, then abandoned for the
// next tier; a tier that exhausts its time slice falls through
// immediately. The first fully successful tier ends the chain. If
// every tier fails, the best certified best-so-far candidate salvaged
// along the way is returned with Degraded set; only when there is no
// certified candidate at all does the call return an error
// (ErrPortfolioExhausted, carrying the tier errors).
func PartitionPortfolio(ctx context.Context, h *Hypergraph, opts PortfolioOptions) (*PortfolioResult, error) {
	chain := opts.Chain
	if len(chain) == 0 {
		chain = defaultChain()
	}
	tiers := make([]resilience.Tier, len(chain))
	for i, name := range chain {
		alg, err := resolveAlgorithm(name)
		if err != nil {
			return nil, err
		}
		tiers[i] = resilience.Tier{
			Name: alg.Name,
			Run: func(ctx context.Context, h *Hypergraph, seed int64) (*Bipartition, int, error) {
				r, err := alg.Run(ctx, h, AlgoConfig{Starts: opts.Starts, Seed: seed, Parallelism: opts.Parallelism, Constraint: opts.Constraint})
				if err != nil {
					return nil, 0, err
				}
				return r.Partition, r.CutSize, nil
			},
		}
	}
	return resilience.RunPortfolio(ctx, h, tiers, resilience.Options{
		Budget:     opts.Budget,
		Seed:       opts.Seed,
		Breakers:   opts.Breakers,
		Constraint: opts.Constraint,
	})
}

// PartitionCheckpointed runs one registry algorithm with a crash-safe
// journal at path: every start that finishes under a live context has
// its index, cut and "new best" flag fsynced into the journal, and when
// resume is true and the journal already exists, the run continues from
// the recovered progress instead of starting over. Because each start
// is a pure function of (h, seed, start index), the journal stores no
// result: the resume re-runs the best journaled start first (detached
// from ctx's cancellation), checks its cut against the journal, and
// skips the other journaled starts. Ties break toward the lowest start
// index, so a resumed run returns a Result identical to an
// uninterrupted run with the same arguments — no matter where the
// previous process died, or whether a timeout stopped it.
//
// The journal binds itself to (algorithm, hypergraph, seed, starts,
// constraint); resuming with any of those changed is refused, and so
// is a journal whose best start re-runs to a different cut. A journal
// whose tail was torn by the crash is truncated to its last intact
// record. On resume the journal may also be a fresh path (the file is
// then created), so callers can pass the same flags for first runs and
// retries alike.
func PartitionCheckpointed(ctx context.Context, h *Hypergraph, algo string, cfg AlgoConfig, path string, resume bool) (*AlgoResult, error) {
	alg, err := resolveAlgorithm(algo)
	if err != nil {
		return nil, err
	}
	// Normalize the start count up front so the journal's identity and
	// every package's engine invocation agree (flow would otherwise
	// default 0 seed pairs to 5 while the journal recorded 1).
	cfg.Starts = engine.Normalize(cfg.Starts)
	meta := checkpoint.NewMeta(alg.Name, h, cfg.Seed, cfg.Starts)
	// The journal is bound to the balance contract too: per-start
	// results depend on it, so resuming a run under a different ε or
	// fixed set must be refused, not silently blended.
	meta.Constraint = cfg.Constraint.Key()

	var rj *checkpoint.RunJournal
	var state *CheckpointState
	if resume {
		rj, state, err = checkpoint.Resume(path, meta)
		if errors.Is(err, os.ErrNotExist) {
			rj, err = checkpoint.CreateRun(path, meta)
		}
	} else {
		rj, err = checkpoint.CreateRun(path, meta)
	}
	if err != nil {
		return nil, err
	}
	defer rj.Close()

	cfg.Checkpoint = &CheckpointIO{Sink: rj, State: state}
	return alg.Run(ctx, h, cfg)
}

// GranularResult describes a granularized netlist.
type GranularResult = granular.Result

// Granularize splits modules heavier than grain into chained unit
// submodules (the paper's Section 5 extension).
func Granularize(h *Hypergraph, grain, linkWeight int64) (*GranularResult, error) {
	return granular.Granularize(h, grain, linkWeight)
}

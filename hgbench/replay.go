package main

// Layer replay. The traced run measures each layer from outside: after
// a production solve it re-executes the solve through the layers'
// exported entry points on the same inputs, one span per call, and
// checks that the replay reproduced what the production call reported.
// A mismatch means the per-layer numbers describe different work, and
// fails the run.

import (
	"fmt"
	"slices"
	"strings"

	"fasthgp/internal/coarsen"
	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/fm"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/multilevel"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// layerCounts are the work counters of a traced cycle. Each is a pure
// function of the inputs, so it repeats exactly from run to run.
type layerCounts struct {
	bytes, arcs, gEdges, boundaryNets, losers, moves    int
	levels, coarsestModules, coarsestNets, coarsestPins int
	flowNodes, flowAugmentations, flowRounds            int64
}

func (c *layerCounts) values() map[string]float64 {
	return map[string]float64{
		"netio.bytes":                   float64(c.bytes),
		"intersect.arcs":                float64(c.arcs),
		"intersect.g_edges":             float64(c.gEdges),
		"core.boundary_nets":            float64(c.boundaryNets),
		"core.losers":                   float64(c.losers),
		"rebalance.moves":               float64(c.moves),
		"coarsen.levels":                float64(c.levels),
		"coarsen.coarsest_modules":      float64(c.coarsestModules),
		"coarsen.coarsest_nets":         float64(c.coarsestNets),
		"coarsen.coarsest_pins":         float64(c.coarsestPins),
		"multilevel.flow_nodes":         float64(c.flowNodes),
		"multilevel.flow_augmentations": float64(c.flowAugmentations),
		"multilevel.flow_rounds":        float64(c.flowRounds),
	}
}

// spanTotals maps each declared per-layer metric "<span>_ms" to the
// summed time of the spans named <span>.
func spanTotals(sum map[string]float64) map[string]float64 {
	values := make(map[string]float64)
	for _, d := range perLayer {
		if name, ok := strings.CutSuffix(d.Name, "_ms"); ok {
			if v, ok := sum[name]; ok {
				values[d.Name] = v
			}
		}
	}
	return values
}

// replay re-executes one production solve layer by layer.
func (w *computeWorkload) replay(tr *tracer, op int, inst instance, seed int64, s solved, lc *layerCounts) error {
	root := tr.begin(op, -1, "replay")
	defer tr.end(root)
	lc.bytes += len(inst.data)
	var err error
	if w.vcycle {
		lc.flowNodes += s.ml.VCycle.FlowNodes
		lc.flowAugmentations += s.ml.VCycle.FlowAugmentations
		lc.flowRounds += s.ml.VCycle.FlowRounds
		err = replayVCycle(tr, op, root, s.h, seed, s.ml, lc)
	} else {
		err = replayAlgorithmI(tr, op, root, s.h, w.coreOptions(seed), s.core, lc)
	}
	if err != nil {
		return fmt.Errorf("%s seed %d: replay: %w", inst.name, seed, err)
	}
	return nil
}

// replayAlgorithmI replays every start of one core.Bipartition call:
// the dual build once, then per start the pseudo-diameter probe, the
// double BFS, the boundary graph and — for the greedy completion —
// Complete-Cut and its application, plus rebalance.Enforce when the
// call carried a constraint.
func replayAlgorithmI(tr *tracer, op, parent int, h *hypergraph.Hypergraph, opts core.Options, res *core.Result, lc *layerCounts) error {
	var bs intersect.BuildStats
	sp := tr.begin(op, parent, "intersect.build")
	ig := intersect.BuildCounted(h, intersect.Options{Threshold: opts.Threshold, Parallelism: 1}, &bs)
	tr.end(sp)
	lc.arcs += bs.TotalArcs
	lc.gEdges += ig.G.NumEdges()
	if ig.G.NumVertices() != res.Stats.GVertices || ig.G.NumEdges() != res.Stats.GEdges {
		return fmt.Errorf("replayed G has %d vertices and %d edges, the solve reported %d and %d",
			ig.G.NumVertices(), ig.G.NumEdges(), res.Stats.GVertices, res.Stats.GEdges)
	}
	if res.Stats.Disconnected {
		return nil // packed by components; no start ran
	}
	greedy := opts.Completion == core.CompletionGreedy
	for i := 0; i < engine.Normalize(opts.Starts); i++ {
		sp = tr.begin(op, parent, "graph.pseudo_diameter")
		u, v, depth := ig.G.LongestBFSPath(engine.StartRNG(opts.Seed, i))
		tr.end(sp)
		sp = tr.begin(op, parent, "graph.double_bfs")
		if opts.BalancedBFS {
			ig.G.DoubleBFSSidesBalanced(u, v)
		} else {
			ig.G.DoubleBFSSides(u, v)
		}
		tr.end(sp)
		sp = tr.begin(op, parent, "core.partial")
		pb := core.PartialFromCutPolicy(h, ig, u, v, opts.BalancedBFS)
		tr.end(sp)
		lc.boundaryNets += len(pb.Boundary.Nets)

		var losers []int
		if greedy {
			sp = tr.begin(op, parent, "core.complete_cut")
			winner := core.CompleteCutGreedy(pb.Boundary)
			tr.end(sp)
			sp = tr.begin(op, parent, "core.apply")
			_, losers = pb.Apply(h, winner)
			tr.end(sp)
			lc.losers += len(losers)
		}
		if i == res.Stats.Engine.BestStart {
			if depth != res.Stats.BFSDepth || len(pb.Boundary.Nets) != res.Stats.BoundarySize ||
				!slices.Equal(pb.Boundary.Nets, res.Boundary) {
				return fmt.Errorf("winning start %d replayed with BFS depth %d and boundary %d, the solve reported %d and %d",
					i, depth, len(pb.Boundary.Nets), res.Stats.BFSDepth, res.Stats.BoundarySize)
			}
			if greedy && !slices.Equal(losers, res.Losers) {
				return fmt.Errorf("winning start %d replayed %d losers, the solve reported %d", i, len(losers), len(res.Losers))
			}
		}
		if !opts.Constraint.IsZero() {
			if err := replayEnforce(tr, op, parent, h, opts, i, res.Stats.Engine.Cuts[i], lc); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayEnforce replays the constraint repair of start i. That start's
// partition before the repair is the unconstrained start i, which a
// one-start solve seeded StartSeed(seed, i) ^ StartSeed(0, 0)
// reproduces: start 0 of seed s draws from StartSeed(s, 0) =
// s ^ StartSeed(0, 0). Only the Enforce call counts as the layer.
func replayEnforce(tr *tracer, op, parent int, h *hypergraph.Hypergraph, opts core.Options, i, wantCut int, lc *layerCounts) error {
	one := opts
	one.Starts = 1
	one.Seed = engine.StartSeed(opts.Seed, i) ^ engine.StartSeed(0, 0)
	one.Constraint = partition.Constraint{}
	sp := tr.begin(op, parent, "replay.unconstrained_start")
	before, err := core.Bipartition(h, one)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("start %d: %w", i, err)
	}
	p := before.Partition.Clone()
	sp = tr.begin(op, parent, "rebalance.enforce")
	err = rebalance.Enforce(h, p, opts.Constraint)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("start %d: %w", i, err)
	}
	for v := 0; v < h.NumVertices(); v++ {
		if p.Side(v) != before.Partition.Side(v) {
			lc.moves++
		}
	}
	if cut := partition.CutSize(h, p); cut != wantCut {
		return fmt.Errorf("start %d replayed cut %d after rebalance, the solve reported %d", i, cut, wantCut)
	}
	return nil
}

// minCoarseVertices and coarsestStarts are multilevel.Options'
// defaults, which vcycleOptions leaves unset.
const (
	minCoarseVertices = 64
	coarsestStarts    = 10
)

// replayVCycle replays the single V-cycle of a one-start
// multilevel.Bisect: the coarsening hierarchy, the coarsest-level
// Algorithm I call (itself replayed by layer), and Project + FM at
// every level. Flow refinement is unexported; its time is what remains
// of the production call, and since it never worsens FM's cut the
// replayed FM-only cut bounds the production cut from above.
func replayVCycle(tr *tracer, op, parent int, h *hypergraph.Hypergraph, seed int64, res *multilevel.Result, lc *layerCounts) error {
	rng := engine.StartRNG(seed, 0)
	// The cluster weight cap multilevel derives without a constraint:
	// an even split of the coarsest level.
	maxCluster := max((h.TotalVertexWeight()+minCoarseVertices-1)/minCoarseVertices, 1)
	sp := tr.begin(op, parent, "coarsen.hierarchy")
	levels := coarsen.BuildHierarchy(h, rng, coarsen.Options{MinVertices: minCoarseVertices, MaxClusterWeight: maxCluster})
	tr.end(sp)
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].Coarse
	}
	lc.levels += len(levels)
	lc.coarsestModules += coarsest.NumVertices()
	lc.coarsestNets += coarsest.NumEdges()
	lc.coarsestPins += coarsest.NumPins()
	if len(levels) != res.Levels || coarsest.NumVertices() != res.CoarsestVertices {
		return fmt.Errorf("replayed %d levels down to %d modules, the solve reported %d and %d",
			len(levels), coarsest.NumVertices(), res.Levels, res.CoarsestVertices)
	}

	opts := core.Options{Starts: coarsestStarts, Seed: rng.Int63(), Threshold: 10, BalancedBFS: true,
		Completion: core.CompletionWeighted, Parallelism: 1, KernelWorkers: 1}
	sp = tr.begin(op, parent, "core.bipartition")
	initial, err := core.Bipartition(coarsest, opts)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("coarsest level: %w", err)
	}
	if err := replayAlgorithmI(tr, op, parent, coarsest, opts, initial, lc); err != nil {
		return fmt.Errorf("coarsest level: %w", err)
	}

	p := initial.Partition
	improve := func(g *hypergraph.Hypergraph) {
		// multilevel skips refinement of an invalid partition and
		// ignores FM's error, which only restates that check.
		if p.Validate(g) == nil {
			_, _ = fm.Improve(g, p, fm.Options{BalanceFraction: 0.1})
		}
	}
	sp = tr.begin(op, parent, "fm.improve")
	improve(coarsest)
	tr.end(sp)
	for i := len(levels) - 1; i >= 0; i-- {
		fine := h
		if i > 0 {
			fine = levels[i-1].Coarse
		}
		sp = tr.begin(op, parent, "fm.improve")
		p = coarsen.Project(fine.NumVertices(), levels[i].Map, p)
		improve(fine)
		tr.end(sp)
	}
	if cut := partition.CutSize(h, p); cut < res.CutSize {
		return fmt.Errorf("replayed FM-only cut %d is below the solve's cut %d, which flow can only improve on", cut, res.CutSize)
	}
	return nil
}

// Flow-based refinement for the V-cycle, after "Network Flow-Based
// Refinement for Multilevel Hypergraph Partitioning" (Heuer, Sanders,
// Schlag): grow a corridor of bounded weight around the current cut,
// contract everything outside it into the source (Left) and sink
// (Right) of a Lawler flow network, solve max-flow, and adopt the most
// balanced of the minimum cut's two extreme orientations — repaired by
// rebalance.Enforce when the raw min cut improves the cut but
// overshoots the balance bound, and kept only when the end state beats
// the starting cut within the balance contract. FM moves one vertex at
// a time and stalls in local minima; the flow step moves whole vertex
// sets at once and is exactly the non-local escape FM lacks.
package multilevel

import (
	"context"

	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/maxflow"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
)

// VCycleStats are the deterministic work counters of one V-cycle —
// machine-independent, so the perf baseline can bless and gate them
// exactly like allocation counts.
type VCycleStats struct {
	// Levels is the number of coarsening levels used.
	Levels int
	// CoarsestVertices is the size of the coarsest hypergraph.
	CoarsestVertices int
	// CorridorVertices totals corridor sizes over all flow rounds.
	CorridorVertices int64
	// CorridorPinScans totals the pins read while growing corridors.
	// A round reads each net at most once, so its share is at most
	// the pin count.
	CorridorPinScans int64
	// FlowNodes totals flow-network node counts over all rounds.
	FlowNodes int64
	// FlowAugmentations totals Dinic augmenting paths over all rounds.
	FlowAugmentations int64
	// FlowRounds is the number of corridor solves attempted.
	FlowRounds int64
	// FlowAccepted is how many of those were kept — for a cut
	// improvement or an equal-cut balance improvement.
	FlowAccepted int64
	// FlowGain is the total weighted cut reduction from accepted rounds.
	FlowGain int64
	// RefineGain is the total cut reduction (cut nets) achieved by
	// refinement across all levels, FM and flow together.
	RefineGain int64
}

// The flow refinement settings.
const (
	// flowRounds is the number of corridor solves at the finest level.
	// Rounds stop early once a solve cannot improve.
	flowRounds = 4
	// corridorFraction is the per-side corridor weight budget of one
	// flow round, as a fraction of ⌈w(V)/2⌉.
	corridorFraction = 0.1
	// flowEpsilon is the balance envelope without a caller ε: FM's
	// default window, so flow never admits what FM would undo.
	flowEpsilon = 0.2
)

// flowRefine runs up to flowRounds corridor-flow improvement rounds on
// p in place. Each round rebuilds the corridor around the current cut
// with a per-side weight budget of corridorFraction·⌈w(V)/2⌉; a round
// whose min-cut breaks the balance envelope is rolled back and retried
// with half the budget, and a round that cannot improve the cut ends
// the loop. The balance envelope mirrors FM's: the constraint when one
// is set, else ε = flowEpsilon.
func flowRefine(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition,
	c partition.Constraint, scratch *engine.Scratch, stats *VCycleStats) {
	if h.NumVertices() < 4 || h.NumEdges() == 0 {
		return
	}
	bal := c
	if !bal.HasBalance() {
		bal.Epsilon = flowEpsilon
	}
	total := h.TotalVertexWeight()
	maxSide := bal.MaxSideWeight(total, 2)
	budget := corridorFraction
	for round := 0; round < flowRounds; round++ {
		if ctx.Err() != nil {
			return
		}
		gain, accepted, balanced := flowRound(ctx, h, p, bal, maxSide, budget, scratch, stats)
		if accepted {
			stats.FlowAccepted++
			stats.FlowGain += gain
			continue
		}
		if !balanced {
			// The unconstrained min-cut drifted past the balance bound;
			// a tighter corridor bounds the drift by construction.
			budget /= 2
			if budget*float64(total) < 2 {
				return
			}
			continue
		}
		return // flow found no improvement — the cut is flow-optimal here
	}
}

// growCorridor grows one round's corridor around p's cut: it admits
// the free pins of every cut net, then grows breadth-first through the
// nets of admitted vertices, each side spending at most perSide vertex
// weight. It returns the corridor in admission order and read, which
// marks every net it read: the cut nets and every net of a corridor
// vertex. Buffers are leased from scratch.
func growCorridor(h *hypergraph.Hypergraph, p *partition.Bipartition, bal partition.Constraint,
	perSide int64, scratch *engine.Scratch, stats *VCycleStats) (queue []int, read []bool) {
	sideBudget := [2]int64{perSide, perSide}
	inCorridor := scratch.Bools(h.NumVertices())
	admit := func(v int) {
		if inCorridor[v] || bal.Fixed(v) >= 0 {
			return
		}
		s := p.Side(v)
		if w := h.VertexWeight(v); sideBudget[s] >= w {
			sideBudget[s] -= w
			inCorridor[v] = true
			queue = append(queue, v)
		}
	}
	// Admission fails only for a pin already in the corridor, a fixed
	// pin, or one heavier than what its side has left of a budget that
	// never grows back, so a second read of a net admits nothing: each
	// net is read once per round.
	read = scratch.Bools(h.NumEdges())
	scan := func(e int) {
		if read[e] {
			return
		}
		read[e] = true
		pins := h.EdgePins(e)
		stats.CorridorPinScans += int64(len(pins))
		for _, v := range pins {
			admit(v)
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		if partition.Crosses(h, p, e) {
			scan(e)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range h.VertexEdges(queue[head]) {
			scan(e)
		}
	}
	return queue, read
}

// flowRound builds one corridor, solves it, and applies the best
// acceptable min-cut assignment: one that, within the balance bound,
// strictly improves the weighted cut or keeps it while strictly
// shrinking the heavy side. A min cut that improves the cut but
// overshoots the balance bound is not discarded outright: it is
// adopted and repaired by rebalance.Enforce (cheapest movers first),
// and kept when the repaired cut still strictly beats the starting
// point. It returns the realized gain (possibly 0 for a balance-only
// acceptance), whether an assignment was kept, and whether any raw
// candidate respected the balance bound (a false balanced return asks
// the caller to shrink the corridor).
func flowRound(ctx context.Context, h *hypergraph.Hypergraph, p *partition.Bipartition,
	bal partition.Constraint, maxSide int64, budget float64,
	scratch *engine.Scratch, stats *VCycleStats) (gain int64, accepted, balanced bool) {
	n := h.NumVertices()
	m := h.NumEdges()
	stats.FlowRounds++
	// Every buffer leased below is round-local; reclaiming on exit keeps
	// the arena footprint flat across levels × rounds. Nothing else in
	// the V-cycle holds scratch leases across a flow round.
	defer scratch.Release()

	// Both the boundary seeds and the BFS growth ring spend the same
	// per-side weight budget, so corridor size — and with it the flow
	// network — stays bounded no matter how ragged the current cut is.
	// The floor of ~32 average vertices per side keeps the corridor
	// meaningful on coarse levels where a pure fraction would round to
	// nothing.
	total := h.TotalVertexWeight()
	perSide := int64(budget * float64((total+1)/2))
	if minSide := 32 * total / int64(n); perSide < minSide {
		perSide = minSide
	}
	queue, touched := growCorridor(h, p, bal, perSide, scratch, stats)
	if len(queue) == 0 {
		return 0, false, true
	}
	stats.CorridorVertices += int64(len(queue))

	// Lawler net model with source/sink contraction: node 0 = S (all
	// external Left mass), node 1 = T (external Right), corridor vertex
	// queue[i] = node 2+i, and two nodes per touched net joined by an
	// arc of the net's weight — cutting that arc is cutting the net.
	nodeOf := scratch.Ints(n) // vertex → node+1 (0 = not in corridor)
	for i, v := range queue {
		nodeOf[v] = 2 + i + 1
	}
	const s, t = 0, 1
	nodes := 2 + len(queue)
	// Find the touched nets first, so net nodes get contiguous ids in
	// net order and the arc arrays are sized once. Every net of a
	// corridor vertex was read while growing the corridor, so the
	// touched nets are the read ones with a corridor pin.
	arcs := 0
	for e := 0; e < m; e++ {
		if !touched[e] {
			continue
		}
		inner, sArc, tArc := 0, 0, 0
		for _, v := range h.EdgePins(e) {
			if nodeOf[v] != 0 {
				inner++
			} else if p.Side(v) == partition.Left {
				sArc = 1
			} else {
				tArc = 1
			}
		}
		if inner == 0 {
			touched[e] = false
			continue
		}
		nodes += 2
		arcs += 1 + 2*(inner+sArc+tArc)
	}
	stats.FlowNodes += int64(nodes)

	net := maxflow.New(nodes)
	net.Grow(arcs)
	e1 := 2 + len(queue)
	for e := 0; e < m; e++ {
		if !touched[e] {
			continue
		}
		e2 := e1 + 1
		net.AddArc(e1, e2, h.EdgeWeight(e))
		sArc, tArc := false, false
		for _, v := range h.EdgePins(e) {
			if node := nodeOf[v]; node != 0 {
				net.AddArc(node-1, e1, maxflow.Inf)
				net.AddArc(e2, node-1, maxflow.Inf)
			} else if p.Side(v) == partition.Left {
				sArc = true
			} else {
				tArc = true
			}
		}
		if sArc {
			net.AddArc(s, e1, maxflow.Inf)
			net.AddArc(e2, s, maxflow.Inf)
		}
		if tArc {
			net.AddArc(t, e1, maxflow.Inf)
			net.AddArc(e2, t, maxflow.Inf)
		}
		e1 += 2
	}
	if _, err := net.MaxFlowCtx(ctx, s, t); err != nil {
		stats.FlowAugmentations += net.Augmentations()
		return 0, false, true // cancelled — treat as no improvement, stop cleanly
	}
	stats.FlowAugmentations += net.Augmentations()

	// The residual network encodes every minimum cut at once; its two
	// extreme orientations are the smallest source side (reachable from
	// S) and the largest (complement of reachable-to-T). Evaluate both
	// and keep the better acceptable one — the most-balanced-minimum-cut
	// choice. A candidate is acceptable when it respects the balance
	// bound and either strictly improves the cut or matches it with a
	// strictly smaller heavy side; the latter is a plateau hop that
	// re-arms the FM pass that follows an accepted round.
	before := partition.WeightedCutSize(h, p)
	bl, br := partition.SideWeights(h, p)
	curMax := bl
	if br > curMax {
		curMax = br
	}
	type candidate struct {
		after, heavy int64
		ok, balanced bool
	}
	var moved []int
	rollback := func() {
		for _, v := range moved {
			p.Assign(v, p.Side(v).Opposite())
		}
		moved = moved[:0]
	}
	try := func(leftOf func(i int) bool) candidate {
		for i, v := range queue {
			want := partition.Right
			if leftOf(i) {
				want = partition.Left
			}
			if p.Side(v) != want {
				p.Assign(v, want)
				moved = append(moved, v)
			}
		}
		if len(moved) == 0 {
			return candidate{after: before, heavy: curMax, balanced: true}
		}
		after := partition.WeightedCutSize(h, p)
		left, right := partition.SideWeights(h, p)
		lc, rc, _ := p.Counts()
		heavy := left
		if right > heavy {
			heavy = right
		}
		balanced := left <= maxSide && right <= maxSide && lc > 0 && rc > 0
		ok := balanced && (after < before || (after == before && heavy < curMax))
		rollback()
		return candidate{after: after, heavy: heavy, ok: ok, balanced: balanced}
	}
	srcSide := net.MinCutSourceSide(s)
	small := try(func(i int) bool { return srcSide[2+i] })
	sinkSide := net.MinCutSinkSide(t)
	large := try(func(i int) bool { return !sinkSide[2+i] })

	pick := func(a, b candidate) bool { // does a beat b?
		if a.after != b.after {
			return a.after < b.after
		}
		return a.heavy < b.heavy
	}
	best, leftOf := small, func(i int) bool { return srcSide[2+i] }
	if (large.ok && !small.ok) || (large.ok == small.ok && pick(large, small)) {
		best, leftOf = large, func(i int) bool { return !sinkSide[2+i] }
	}
	apply := func() {
		for i, v := range queue {
			want := partition.Right
			if leftOf(i) {
				want = partition.Left
			}
			if p.Side(v) != want {
				p.Assign(v, want)
			}
		}
	}
	if best.ok {
		apply()
		return before - best.after, true, true
	}
	rawBalanced := small.balanced || large.balanced
	if best.after >= before {
		return 0, false, rawBalanced
	}
	// The min cut improves the cut but overshoots the balance bound.
	// Adopt it anyway and walk back inside the envelope with the
	// cheapest movers; the repair may touch vertices outside the
	// corridor, so restore from a full snapshot if the repaired cut no
	// longer pays for itself.
	shadow := scratch.Int8s(n)
	for v := 0; v < n; v++ {
		shadow[v] = int8(p.Side(v))
	}
	apply()
	if err := rebalance.Enforce(h, p, bal); err == nil {
		after := partition.WeightedCutSize(h, p)
		left, right := partition.SideWeights(h, p)
		lc, rc, _ := p.Counts()
		if after < before && left <= maxSide && right <= maxSide && lc > 0 && rc > 0 {
			return before - after, true, true
		}
	}
	for v := 0; v < n; v++ {
		p.Assign(v, partition.Side(shadow[v]))
	}
	return 0, false, rawBalanced
}

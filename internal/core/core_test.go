package core

import (
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/partition"
)

func mkHG(t *testing.T, n int, edges [][]int) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// twoClusters builds two intra-connected clusters of size k joined by
// `bridges` crossing nets. The optimum unconstrained cut is `bridges`.
func twoClusters(t *testing.T, k, bridges int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(2 * k)
	for i := 0; i+1 < k; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(k+i, k+i+1)
	}
	// A few chords for connectivity richness.
	for i := 0; i+2 < k; i += 2 {
		b.AddEdge(i, i+2)
		b.AddEdge(k+i, k+i+2)
	}
	for j := 0; j < bridges; j++ {
		b.AddEdge(j%k, k+(j%k))
	}
	return b.MustBuild()
}

func TestErrorTooSmall(t *testing.T) {
	h := mkHG(t, 1, [][]int{{0}})
	if _, err := Bipartition(h, Options{}); err == nil {
		t.Error("accepted 1-vertex hypergraph")
	}
}

func TestTwoClustersFindsBridge(t *testing.T) {
	h := twoClusters(t, 8, 1)
	res, err := Bipartition(h, Options{Starts: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if res.CutSize != 1 {
		t.Errorf("CutSize = %d, want 1 (the bridge)", res.CutSize)
	}
	if res.Stats.Disconnected {
		t.Error("connected instance reported disconnected")
	}
	if res.Stats.BFSDepth <= 0 {
		t.Errorf("BFSDepth = %d, want > 0", res.Stats.BFSDepth)
	}
	if res.Stats.GVertices != h.NumEdges() {
		t.Errorf("GVertices = %d, want %d", res.Stats.GVertices, h.NumEdges())
	}
}

func TestCutSizeMatchesPartition(t *testing.T) {
	h := twoClusters(t, 6, 2)
	res, err := Bipartition(h, Options{Starts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.CutSize(h, res.Partition); got != res.CutSize {
		t.Errorf("reported CutSize %d != recomputed %d", res.CutSize, got)
	}
}

func TestCrossingNetsAreLosersOrExcluded(t *testing.T) {
	// Invariant from the construction: winners and non-boundary nets
	// never cross, so every crossing net is a loser (or excluded).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(20)
		m := 8 + rng.Intn(30)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			size := 2 + rng.Intn(4)
			pins := make([]int, size)
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		for _, comp := range []Completion{CompletionGreedy, CompletionExact, CompletionWeighted} {
			res, err := Bipartition(h, Options{Seed: int64(trial), Completion: comp})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Partition.Validate(h); err != nil {
				t.Fatalf("trial %d %v: invalid partition: %v", trial, comp, err)
			}
			loser := make(map[int]bool, len(res.Losers))
			for _, e := range res.Losers {
				loser[e] = true
			}
			if res.Stats.Disconnected || res.Stats.Repaired {
				// Repair moves modules outside the winner/loser scheme;
				// the loser list is then only advisory.
				continue
			}
			for e := 0; e < h.NumEdges(); e++ {
				if partition.Crosses(h, res.Partition, e) && !loser[e] {
					t.Errorf("trial %d %v: net %d crosses but is not a loser", trial, comp, e)
				}
			}
		}
	}
}

func TestDisconnectedZeroCut(t *testing.T) {
	b := hypergraph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	h := b.MustBuild()
	res, err := Bipartition(h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Disconnected {
		t.Error("disconnected instance not flagged")
	}
	if res.CutSize != 0 {
		t.Errorf("CutSize = %d, want 0", res.CutSize)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	l, r := partition.SideWeights(h, res.Partition)
	if l != 4 || r != 4 {
		t.Errorf("weights %d|%d, want 4|4", l, r)
	}
}

func TestDisconnectedWithIsolatedModules(t *testing.T) {
	b := hypergraph.NewBuilder(6)
	b.AddEdge(0, 1) // one net; modules 2..5 isolated
	h := b.MustBuild()
	res, err := Bipartition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if res.CutSize != 0 {
		t.Errorf("CutSize = %d, want 0", res.CutSize)
	}
}

func TestEdgelessHypergraph(t *testing.T) {
	h := mkHG(t, 4, nil)
	res, err := Bipartition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if res.CutSize != 0 {
		t.Errorf("CutSize = %d, want 0", res.CutSize)
	}
}

func TestSingleSpanningNet(t *testing.T) {
	// One net over everything: any partition cuts it; repair must keep
	// both sides nonempty.
	h := mkHG(t, 5, [][]int{{0, 1, 2, 3, 4}})
	res, err := Bipartition(h, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if res.CutSize != 1 {
		t.Errorf("CutSize = %d, want 1", res.CutSize)
	}
}

func TestThresholdExclusion(t *testing.T) {
	b := hypergraph.NewBuilder(10)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(5+i, 5+i+1)
	}
	b.AddEdge(0, 5)                             // bridge
	big := b.AddEdge(0, 1, 2, 5, 6, 7, 8, 9, 3) // 9-pin bus net
	h := b.MustBuild()

	res, err := Bipartition(h, Options{Threshold: 8, Seed: 4, Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExcludedNets != 1 {
		t.Fatalf("ExcludedNets = %d, want 1", res.Stats.ExcludedNets)
	}
	// The big net spans both clusters so it must cross; CutSize is
	// recomputed over all nets and so includes it.
	if !partition.Crosses(h, res.Partition, big) {
		t.Error("bus net unexpectedly uncut")
	}
	if res.CutSize != 2 {
		t.Errorf("CutSize = %d, want 2 (bridge + bus)", res.CutSize)
	}
}

func TestMultiStartNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 14 + rng.Intn(10)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		seed := int64(trial * 13)
		one, err := Bipartition(h, Options{Starts: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		many, err := Bipartition(h, Options{Starts: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// The first of the 20 starts replays the single start (same rng
		// stream), so the best of 20 can only be <=.
		if many.CutSize > one.CutSize {
			t.Errorf("trial %d: 20 starts cut %d > 1 start cut %d", trial, many.CutSize, one.CutSize)
		}
	}
}

func TestDeterminism(t *testing.T) {
	h := twoClusters(t, 10, 3)
	a, err := Bipartition(h, Options{Starts: 7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bipartition(h, Options{Starts: 7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutSize != b.CutSize {
		t.Fatalf("cut differs across identical runs: %d vs %d", a.CutSize, b.CutSize)
	}
	for v := 0; v < h.NumVertices(); v++ {
		if a.Partition.Side(v) != b.Partition.Side(v) {
			t.Fatalf("vertex %d side differs across identical runs", v)
		}
	}
}

func TestCutAtLeastUnconstrainedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(6)
		m := 4 + rng.Intn(10)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		_, opt, err := bruteforce.MinCutUnconstrained(h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Bipartition(h, Options{Starts: 3, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < opt {
			t.Errorf("trial %d: heuristic cut %d below exact optimum %d", trial, res.CutSize, opt)
		}
		if res.CutSize > h.NumEdges() {
			t.Errorf("trial %d: cut %d exceeds edge count", trial, res.CutSize)
		}
	}
}

func TestWeightedCompletionBalances(t *testing.T) {
	// Clusters with wildly uneven module weights: the engineer's rule
	// plus leftover packing should keep imbalance below total/3.
	rng := rand.New(rand.NewSource(17))
	b := hypergraph.NewBuilder(24)
	for i := 0; i+1 < 12; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(12+i, 12+i+1)
	}
	b.AddEdge(0, 12)
	b.AddEdge(5, 17)
	for v := 0; v < 24; v++ {
		b.SetVertexWeight(v, int64(1+rng.Intn(20)))
	}
	h := b.MustBuild()
	res, err := Bipartition(h, Options{Starts: 10, Seed: 3, Completion: CompletionWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	imb := partition.Imbalance(h, res.Partition)
	if imb > h.TotalVertexWeight()/3 {
		t.Errorf("imbalance %d of total %d too large", imb, h.TotalVertexWeight())
	}
}

func TestExactCompletionNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(16)
		m := 2 * n
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		seed := int64(trial)
		g, err := Bipartition(h, Options{Seed: seed, Completion: CompletionGreedy})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Bipartition(h, Options{Seed: seed, Completion: CompletionExact})
		if err != nil {
			t.Fatal(err)
		}
		// Same seed → same G-cut → exact completes at least as well in
		// loser count. The final CutSize can differ slightly because
		// leftover packing reacts to the winner sets, so compare losers.
		if len(e.Losers) > len(g.Losers) {
			t.Errorf("trial %d: exact losers %d > greedy losers %d", trial, len(e.Losers), len(g.Losers))
		}
	}
}

func TestCompletionString(t *testing.T) {
	if CompletionGreedy.String() != "greedy" || CompletionExact.String() != "exact" ||
		CompletionWeighted.String() != "weighted" || Completion(9).String() != "Completion(9)" {
		t.Error("Completion.String broken")
	}
	if MinCut.String() != "cut" || MinQuotient.String() != "quotient" {
		t.Error("Objective.String broken")
	}
}

func TestBalancedBFSOption(t *testing.T) {
	h := twoClusters(t, 10, 2)
	for _, balanced := range []bool{false, true} {
		res, err := Bipartition(h, Options{Starts: 5, Seed: 2, BalancedBFS: balanced})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("balanced=%v: %v", balanced, err)
		}
		if res.CutSize > 4 {
			t.Errorf("balanced=%v: cut %d unexpectedly large", balanced, res.CutSize)
		}
	}
}

func TestQuotientObjective(t *testing.T) {
	h := twoClusters(t, 8, 1)
	res, err := Bipartition(h, Options{Starts: 5, Seed: 1, Objective: MinQuotient})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatal(err)
	}
	if q := partition.QuotientCut(h, res.Partition); q > 0.5 {
		t.Errorf("quotient cut %g too large for barbell instance", q)
	}
}

// buildIG is a helper for partial-bipartition tests.
func buildIG(h *hypergraph.Hypergraph) *intersect.Result {
	return intersect.Build(h, intersect.Options{})
}

// newBipartiteBuilder returns a graph builder sized for parts a and b.
func newBipartiteBuilder(a, b int) *graph.Builder {
	return graph.NewBuilder(a + b)
}

func TestPartialFromCutInvariants(t *testing.T) {
	// Figure-2 style checks on the partial bipartition structure.
	h := twoClusters(t, 6, 2)
	ig := buildIG(h)
	if !ig.G.IsConnected() {
		t.Fatal("test instance intersection graph disconnected")
	}
	rng := rand.New(rand.NewSource(8))
	u, v, _ := ig.G.LongestBFSPath(rng)
	pb := PartialFromCut(h, ig, u, v)

	// Boundary flags agree with side adjacency.
	for i := 0; i < ig.G.NumVertices(); i++ {
		want := false
		for _, j := range ig.G.Neighbors(i) {
			if pb.NetSide[j] != pb.NetSide[i] {
				want = true
				break
			}
		}
		if pb.IsBoundary[i] != want {
			t.Errorf("IsBoundary[%d] = %v, want %v", i, pb.IsBoundary[i], want)
		}
	}

	// The boundary graph is bipartite with every edge crossing sides.
	bg := pb.Boundary
	if _, ok := bg.G.IsBipartite(); !ok {
		t.Error("boundary graph not bipartite")
	}
	for k := 0; k < bg.G.NumVertices(); k++ {
		for _, l := range bg.G.Neighbors(k) {
			if bg.SideOf[k] == bg.SideOf[l] {
				t.Errorf("boundary edge %d-%d joins same side", k, l)
			}
		}
	}

	// Non-boundary nets never cross the base assignment.
	p, lw, rw := pb.BaseAssignment(h)
	if lw < 0 || rw < 0 {
		t.Error("negative committed weight")
	}
	for i, netID := range ig.NetOf {
		if pb.IsBoundary[i] {
			continue
		}
		if partition.ClassifyEdge(h, p, netID) == partition.EdgeCrossing {
			t.Errorf("non-boundary net %d crosses the partial bipartition", netID)
		}
	}
}

func TestWinnersNeverCross(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(14)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		ig := buildIG(h)
		if !ig.G.IsConnected() || ig.G.NumVertices() < 2 {
			continue
		}
		u, v, _ := ig.G.LongestBFSPath(rng)
		pb := PartialFromCut(h, ig, u, v)
		weighted, _ := completeCut(h, pb, nil)
		for name, winner := range map[string][]bool{
			"greedy":   CompleteCutGreedy(pb.Boundary),
			"exact":    CompleteCutExact(pb.Boundary),
			"weighted": weighted,
		} {
			if !WinnersIndependent(pb.Boundary, winner) {
				t.Fatalf("trial %d: %s winners not independent", trial, name)
			}
			p, _ := pb.Apply(h, winner)
			for k, w := range winner {
				if !w {
					continue
				}
				if partition.ClassifyEdge(h, p, pb.Boundary.Nets[k]) == partition.EdgeCrossing {
					t.Errorf("trial %d: %s winner net %d crosses", trial, name, pb.Boundary.Nets[k])
				}
			}
		}
	}
}

func TestGreedyNearOptimalCompletion(t *testing.T) {
	// The paper claims Complete-Cut is within one of the optimum per
	// connected boundary graph. Our measurement (documented in
	// EXPERIMENTS.md) finds rare gaps of up to ~3 on random bipartite
	// graphs; assert the measured envelope with fixed seeds.
	worst := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bg := randomBoundaryGraph(rng, 2+rng.Intn(20), 2+rng.Intn(20), 0.25)
		greedy := LoserCount(CompleteCutGreedy(bg))
		opt := OptimalLoserCount(bg)
		if greedy < opt {
			t.Fatalf("seed %d: greedy %d below optimum %d (impossible)", seed, greedy, opt)
		}
		if gap := greedy - opt; gap > worst {
			worst = gap
		}
	}
	if worst > 5 {
		t.Errorf("worst greedy-optimal gap = %d, beyond measured envelope 5", worst)
	}
}

// randomBoundaryGraph fabricates a standalone bipartite boundary graph
// for completion-rule tests.
func randomBoundaryGraph(rng *rand.Rand, a, b int, p float64) *BoundaryGraph {
	bg := &BoundaryGraph{}
	gb := newBipartiteBuilder(a, b)
	for i := 0; i < a; i++ {
		bg.Nets = append(bg.Nets, i)
		bg.SideOf = append(bg.SideOf, partition.Left)
	}
	for j := 0; j < b; j++ {
		bg.Nets = append(bg.Nets, a+j)
		bg.SideOf = append(bg.SideOf, partition.Right)
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if rng.Float64() < p {
				gb.AddEdge(i, a+j)
			}
		}
	}
	bg.G = gb.MustBuild()
	return bg
}

func TestCompleteCutGreedyKnownGraphs(t *testing.T) {
	// Star K_{1,4}: one loser (the center).
	rng := rand.New(rand.NewSource(0))
	_ = rng
	star := &BoundaryGraph{Nets: []int{0, 1, 2, 3, 4}}
	sb := newBipartiteBuilder(1, 4)
	star.SideOf = []partition.Side{partition.Left, partition.Right, partition.Right, partition.Right, partition.Right}
	for j := 1; j <= 4; j++ {
		sb.AddEdge(0, j)
	}
	star.G = sb.MustBuild()
	if got := LoserCount(CompleteCutGreedy(star)); got != 1 {
		t.Errorf("star losers = %d, want 1", got)
	}
	if got := LoserCount(CompleteCutExact(star)); got != 1 {
		t.Errorf("star exact losers = %d, want 1", got)
	}

	// Even path P4: two losers (the middle vertices).
	p4 := &BoundaryGraph{
		Nets:   []int{0, 1, 2, 3},
		SideOf: []partition.Side{partition.Left, partition.Right, partition.Left, partition.Right},
	}
	pb := newBipartiteBuilder(2, 2)
	pb.AddEdge(0, 1)
	pb.AddEdge(1, 2)
	pb.AddEdge(2, 3)
	p4.G = pb.MustBuild()
	if got := LoserCount(CompleteCutGreedy(p4)); got != 2 {
		t.Errorf("P4 losers = %d, want 2", got)
	}

	// Edgeless boundary graph: everyone wins.
	iso := &BoundaryGraph{
		Nets:   []int{0, 1},
		SideOf: []partition.Side{partition.Left, partition.Right},
	}
	iso.G = newBipartiteBuilder(1, 1).MustBuild()
	if got := LoserCount(CompleteCutGreedy(iso)); got != 0 {
		t.Errorf("isolated losers = %d, want 0", got)
	}
}

// TestConstraintSeedingAndEnforcement pins one vertex of each cluster
// to the OPPOSITE cluster's natural side and runs Algorithm I under an
// ε bound: the fixed-seeded double-BFS plus the final repair must keep
// every pin in place and both sides inside MaxSideWeight, across seeds.
func TestConstraintSeedingAndEnforcement(t *testing.T) {
	h := twoClusters(t, 8, 2)
	n := h.NumVertices()
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = partition.FreeVertex
	}
	fixed[0] = 1   // cluster-A vertex forced Right
	fixed[n-1] = 0 // cluster-B vertex forced Left
	c := partition.Constraint{Epsilon: 0.25, FixedSide: fixed}
	maxSide := c.MaxSideWeight(h.TotalVertexWeight(), 2)
	for seed := int64(1); seed <= 6; seed++ {
		res, err := Bipartition(h, Options{Seed: seed, Starts: 3, Constraint: c})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !c.RespectsFixed(res.Partition) {
			t.Errorf("seed %d: fixed vertex moved", seed)
		}
		l, r := partition.SideWeights(h, res.Partition)
		if l > maxSide || r > maxSide {
			t.Errorf("seed %d: side weights %d/%d exceed bound %d", seed, l, r, maxSide)
		}
	}
}

// TestConstraintSeedPathFallsBack: fixed vertices whose nets all share
// one G-vertex cannot seed a distinct pair, so seedPath must fall back
// to the longest-BFS-path draw instead of failing.
func TestConstraintSeedPathFallsBack(t *testing.T) {
	// A star: every net contains vertex 0, so the dual graph collapses
	// the fixed nets onto overlapping G-vertices.
	h := mkHG(t, 6, [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	fixed := []int8{partition.FreeVertex, 0, partition.FreeVertex, partition.FreeVertex, partition.FreeVertex, 1}
	c := partition.Constraint{FixedSide: fixed}
	res, err := Bipartition(h, Options{Seed: 3, Starts: 4, Constraint: c})
	if err != nil {
		t.Fatal(err)
	}
	if !c.RespectsFixed(res.Partition) {
		t.Error("fixed vertex moved on the degenerate star")
	}
}

package core

// Identity through both storage forms of the dual graph: Algorithm I
// on the same intersection graph held as CSR lists and as bitset rows
// must give identical Results — every start's cut, the winning start,
// the partition, losers, boundary, BFS depth and distinct-pair count.
// Every labeling the algorithm reads depends only on adjacency sets
// visited in ascending order, which both forms provide.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fasthgp/internal/coarsen"
	"fasthgp/internal/engine"
	"fasthgp/internal/gen"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
)

// otherForm returns a copy of ig whose G holds the same edges in the
// other storage form.
func otherForm(t *testing.T, ig *intersect.Result) *intersect.Result {
	t.Helper()
	g := ig.G
	n := g.NumVertices()
	var alt *graph.Graph
	if g.Bitset() {
		start := make([]int, n+1)
		var adj []int
		for v := 0; v < n; v++ {
			adj = append(adj, g.Neighbors(v)...)
			start[v+1] = len(adj)
		}
		var err error
		if alt, err = graph.FromCSR(start, adj); err != nil {
			t.Fatal(err)
		}
	} else {
		alt = bitsetForm(g)
		if err := alt.ValidateCSR(); err != nil {
			t.Fatal(err)
		}
	}
	cp := *ig
	cp.G = alt
	return &cp
}

// sameResult reports the first field in which two Algorithm I Results
// differ, or "".
func sameResult(a, b *Result) string {
	switch {
	case a.CutSize != b.CutSize:
		return "CutSize"
	case !slices.Equal(a.Partition.Sides(), b.Partition.Sides()):
		return "Partition"
	case !slices.Equal(a.Losers, b.Losers):
		return "Losers"
	case !slices.Equal(a.Boundary, b.Boundary):
		return "Boundary"
	case a.Stats.BFSDepth != b.Stats.BFSDepth:
		return "BFSDepth"
	case a.Stats.BoundarySize != b.Stats.BoundarySize:
		return "BoundarySize"
	case a.Stats.Repaired != b.Stats.Repaired:
		return "Repaired"
	case a.Stats.DistinctPairs != b.Stats.DistinctPairs:
		return "DistinctPairs"
	case a.Stats.ProbeSweeps != b.Stats.ProbeSweeps:
		return "ProbeSweeps"
	case a.Stats.Disconnected != b.Stats.Disconnected:
		return "Disconnected"
	case a.Stats.GVertices != b.Stats.GVertices || a.Stats.GEdges != b.Stats.GEdges:
		return "G size"
	case !slices.Equal(a.Stats.Engine.Cuts, b.Stats.Engine.Cuts):
		return "Engine.Cuts"
	case a.Stats.Engine.BestStart != b.Stats.Engine.BestStart:
		return "Engine.BestStart"
	}
	return ""
}

// checkBothForms runs Algorithm I on h's dual in both storage forms —
// whole calls, and solvePair on the first starts' endpoint pairs with
// and without a scratch arena — and fails on any difference. It also
// runs the whole call with the deprecated KernelWorkers set, which must
// change nothing, the dual's and G′'s storage forms included. It
// returns the whole call's Result on the dual as production builds it.
func checkBothForms(t *testing.T, name string, h *hypergraph.Hypergraph, opts Options) *Result {
	t.Helper()
	ig := intersect.Build(h, intersect.Options{Threshold: opts.Threshold})
	alt := otherForm(t, ig)
	var results [2]*Result
	for k, f := range []*intersect.Result{ig, alt} {
		res, err := bipartitionDual(context.Background(), h, f, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.BitsetDual != f.G.Bitset() {
			t.Errorf("%s: Stats.BitsetDual = %v on a dual with Bitset() = %v", name, res.Stats.BitsetDual, f.G.Bitset())
		}
		// Only a bitset G emits bitset-row G′, and never for the exact
		// completion, whose matching reads CSR lists.
		if (!f.G.Bitset() || opts.Completion == CompletionExact) && res.Stats.BitsetBoundaries != 0 {
			t.Errorf("%s: %d bitset-row G′ (bitset dual %v, %v completion)", name, res.Stats.BitsetBoundaries, f.G.Bitset(), opts.Completion)
		}
		results[k] = res
	}
	if diff := sameResult(results[0], results[1]); diff != "" {
		t.Errorf("%s: %s differs between the storage forms", name, diff)
	}
	kernelOpts := opts
	kernelOpts.KernelWorkers = 8
	res, err := BipartitionCtx(context.Background(), h, kernelOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if diff := sameResult(res, results[0]); diff != "" {
		t.Errorf("%s: %s differs at KernelWorkers 8", name, diff)
	}
	if res.Stats.BitsetDual != results[0].Stats.BitsetDual || res.Stats.BitsetBoundaries != results[0].Stats.BitsetBoundaries {
		t.Errorf("%s: KernelWorkers 8 gives BitsetDual %v and %d bitset-row G′, want %v and %d", name,
			res.Stats.BitsetDual, res.Stats.BitsetBoundaries, results[0].Stats.BitsetDual, results[0].Stats.BitsetBoundaries)
	}
	if results[0].Stats.Disconnected {
		return results[0]
	}
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	seeds := [2]*seeder{newSeeder(h, ig, opts), newSeeder(h, alt, opts)}
	for i := 0; i < min(engine.Normalize(opts.Starts), 3); i++ {
		var pairs [2][3]int
		var solved [2]*Result
		for k, f := range []*intersect.Result{ig, alt} {
			u, v, depth := seeds[k].path(i, engine.StartRNG(opts.Seed, i))
			pairs[k] = [3]int{u, v, depth}
			var s *engine.Scratch
			if k == 1 {
				s = scratch
			}
			res, err := solvePair(h, f, u, v, depth, opts, nil, s)
			if err != nil {
				t.Fatalf("%s start %d: %v", name, i, err)
			}
			solved[k] = res
			scratch.Release()
		}
		if pairs[0] != pairs[1] {
			t.Fatalf("%s start %d: endpoint pairs %v and %v differ between the forms", name, i, pairs[0], pairs[1])
		}
		if diff := sameResult(solved[0], solved[1]); diff != "" {
			t.Errorf("%s start %d: solvePair %s differs between the storage forms", name, i, diff)
		}
	}
	return results[0]
}

// dualFormOptions are the option sets every instance runs under: the
// paper's greedy, the exact completion, and the V-cycle's coarsest-level
// setting (weighted completion, balanced BFS, threshold 10).
func dualFormOptions() []Options {
	return []Options{
		{Starts: 10, Seed: 1, Parallelism: 1},
		{Starts: 6, Seed: 2, Completion: CompletionExact, Parallelism: 2},
		{Starts: 10, Seed: 3, Threshold: 10, BalancedBFS: true, Completion: CompletionWeighted, Parallelism: 1},
	}
}

func TestDualFormsGoldenCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.nets"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus netlists: %v", err)
	}
	bitset := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		h, fixed, err := netio.ReadFixed(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".nets")
		for _, opts := range dualFormOptions() {
			if fixed != nil {
				opts.Constraint = partition.Constraint{Epsilon: 0.25, FixedSide: fixed}
			}
			if checkBothForms(t, name, h, opts).Stats.BitsetDual {
				bitset++
			}
		}
	}
	if bitset == 0 {
		t.Error("no corpus netlist took the bitset form; the production path went untested")
	}
}

func TestDualFormsTable2(t *testing.T) {
	for _, c := range []struct {
		name   gen.Table2Name
		bitset bool
	}{
		{gen.Bd1, true}, {gen.Bd2, true}, {gen.Bd3, true},
		// IC2 stays on CSR: its dual is sparse, where bitset rows lose.
		{gen.IC2, false},
	} {
		h, err := gen.Table2Instance(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range dualFormOptions() {
			res := checkBothForms(t, string(c.name), h, opts)
			if got := res.Stats.BitsetDual; got != c.bitset && opts.Threshold == 0 {
				t.Errorf("%s: production dual Bitset() = %v, want %v", c.name, got, c.bitset)
			}
			// Their G′ are sparse (~8 cross neighbours on a few hundred
			// nets), under denseBoundary's factor, so they stay CSR.
			if res.Stats.BitsetBoundaries != 0 {
				t.Errorf("%s: %d of %d G′ held as bitset rows, want none", c.name, res.Stats.BitsetBoundaries, res.Stats.DistinctPairs)
			}
		}
	}
}

// TestDualFormsVCycleCoarsest runs the coarsest levels of the
// vcycle-powerlaw benchmark instances (4000 modules, 6000 nets,
// generator seeds 11–13), coarsened as a one-start V-cycle seeded 1
// coarsens them, under the coarsest-level options. Their duals hold
// ~2.7M edges, the case the bitset form exists for, and nearly every
// net is on the boundary, so every G′ is dense enough for bitset rows.
func TestDualFormsVCycleCoarsest(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("coarsest-level duals of 4000-module netlists; skipped under -short and -race")
	}
	for _, seed := range []int64{11, 12, 13} {
		h, err := gen.PowerLaw(4000, gen.PowerLawConfig{NumEdges: 6000}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rng := engine.StartRNG(engine.StartSeed(1, 0), 0)
		levels := coarsen.BuildHierarchy(h, rng, coarsen.Options{MinVertices: 64,
			MaxClusterWeight: max((h.TotalVertexWeight()+63)/64, 1)})
		coarsest := levels[len(levels)-1].Coarse
		opts := Options{Starts: 10, Seed: rng.Int63(), Threshold: 10, BalancedBFS: true,
			Completion: CompletionWeighted, Parallelism: 1}
		res := checkBothForms(t, fmt.Sprintf("powerlaw-4000-s%d", seed), coarsest, opts)
		if !res.Stats.BitsetDual {
			t.Errorf("seed %d: coarsest-level dual not held as bitset rows", seed)
		}
		if st := res.Stats; st.DistinctPairs == 0 || st.BitsetBoundaries != st.DistinctPairs {
			t.Errorf("seed %d: %d of %d distinct pairs built a bitset-row G′, want all", seed, st.BitsetBoundaries, st.DistinctPairs)
		}
	}
}

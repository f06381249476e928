package core

// Tests for the per-call endpoint-pair memo: a start whose double-BFS
// endpoints an earlier start already solved returns that start's
// Result. The memo must be invisible in every output — each start's
// cut is still the cut of that start solved alone, which is the
// identity the benchmark's replay relies on — and its size must be the
// number of distinct pairs the starts drew, at any Parallelism. The
// same holds for the longest-path probe, which sweeps 64 starts' BFS
// sources at a time: every start draws LongestBFSPath's pair and depth,
// and ProbeSweeps is the number of distinct sources the starts swept.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fasthgp/internal/engine"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
)

type memoCase struct {
	name string
	h    *hypergraph.Hypergraph
	opts Options
}

// memoCases returns Table-2 IC2 (instance seed 1) unconstrained and the
// fixed-rand-24 golden-corpus row under its pins and the corpus ε, each
// with the paper's 50 starts.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	ic2, err := gen.Table2Instance(gen.IC2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("..", "..", "testdata", "corpus", "fixed-rand-24.nets"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fixedH, fixed, err := netio.ReadFixed(f)
	if err != nil {
		t.Fatal(err)
	}
	if fixed == nil {
		t.Fatal("fixed-rand-24 carries no fixed vertices")
	}
	return []memoCase{
		{"IC2", ic2, Options{Starts: 50, Seed: 1}},
		{"fixed-rand-24", fixedH, Options{Starts: 50, Seed: 1,
			Constraint: partition.Constraint{Epsilon: 0.25, FixedSide: fixed}}},
	}
}

// countPairs draws every start's endpoint pair without solving any of
// them and counts the distinct ones.
func countPairs(h *hypergraph.Hypergraph, opts Options) int {
	ig := intersect.Build(h, intersect.Options{Threshold: opts.Threshold})
	seeds := newSeeder(h, ig, opts)
	seen := make(map[[2]int]bool)
	for i := 0; i < opts.Starts; i++ {
		u, v, _ := seeds.path(i, engine.StartRNG(opts.Seed, i))
		seen[[2]int{u, v}] = true
	}
	return len(seen)
}

func TestMemoKeepsEveryStartsCut(t *testing.T) {
	for _, c := range memoCases(t) {
		res, err := Bipartition(c.h, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Stats.Disconnected {
			t.Fatalf("%s: intersection graph is disconnected; no start draws a pair", c.name)
		}
		for i, cut := range res.Stats.Engine.Cuts {
			// Start 0 of seed s draws from StartSeed(s, 0) = s ^ StartSeed(0, 0),
			// so this one-start solve replays start i alone.
			one := c.opts
			one.Starts = 1
			one.Seed = engine.StartSeed(c.opts.Seed, i) ^ engine.StartSeed(0, 0)
			alone, err := Bipartition(c.h, one)
			if err != nil {
				t.Fatalf("%s start %d: %v", c.name, i, err)
			}
			if alone.CutSize != cut {
				t.Errorf("%s start %d: cut %d in the multi-start run, %d solved alone", c.name, i, cut, alone.CutSize)
			}
		}
		t.Logf("%s: %d distinct pairs in %d starts", c.name, res.Stats.DistinctPairs, c.opts.Starts)
		want := countPairs(c.h, c.opts)
		if got := res.Stats.DistinctPairs; got != want {
			t.Errorf("%s: DistinctPairs = %d, counted %d", c.name, got, want)
		}
		if res.Stats.DistinctPairs >= c.opts.Starts {
			t.Errorf("%s: %d distinct pairs in %d starts; the memo has nothing to share", c.name, res.Stats.DistinctPairs, c.opts.Starts)
		}
	}
}

func TestMemoIndependentOfParallelism(t *testing.T) {
	for _, c := range memoCases(t) {
		serial := c.opts
		serial.Parallelism = 1
		a, err := Bipartition(c.h, serial)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		parallel := c.opts
		parallel.Parallelism = 4
		b, err := Bipartition(c.h, parallel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(a.Stats.Engine.Cuts, b.Stats.Engine.Cuts) {
			t.Errorf("%s: per-start cuts differ: %v at Parallelism 1, %v at 4", c.name, a.Stats.Engine.Cuts, b.Stats.Engine.Cuts)
		}
		if a.Stats.Engine.BestStart != b.Stats.Engine.BestStart {
			t.Errorf("%s: best start %d at Parallelism 1, %d at 4", c.name, a.Stats.Engine.BestStart, b.Stats.Engine.BestStart)
		}
		if !slices.Equal(a.Partition.Sides(), b.Partition.Sides()) {
			t.Errorf("%s: partitions differ between Parallelism 1 and 4", c.name)
		}
		if a.Stats.DistinctPairs != b.Stats.DistinctPairs {
			t.Errorf("%s: DistinctPairs %d at Parallelism 1, %d at 4", c.name, a.Stats.DistinctPairs, b.Stats.DistinctPairs)
		}
		if a.Stats.ProbeSweeps != b.Stats.ProbeSweeps {
			t.Errorf("%s: ProbeSweeps %d at Parallelism 1, %d at 4", c.name, a.Stats.ProbeSweeps, b.Stats.ProbeSweeps)
		}
	}
}

// countSources draws every start's probe one sweep at a time and
// counts the distinct sources its two sweeps start from: the start
// vertex and its far vertex.
func countSources(ig *intersect.Result, opts Options) int {
	seen := make(map[int]bool)
	for i := 0; i < opts.Starts; i++ {
		start := engine.StartRNG(opts.Seed, i).Intn(ig.G.NumVertices())
		far, _ := ig.G.Eccentricity(start)
		seen[start], seen[far] = true, true
	}
	return len(seen)
}

// TestCachedProbeMatchesLongestBFSPath runs the unconstrained probe on
// the eight Table-2 instances and the golden corpus (fixed directives
// ignored) over two blocks, the second partial, asking for the starts
// in descending order so that the later block is probed first: every
// start must get LongestBFSPath's pair and depth, and the probe must
// sweep each distinct source once.
func TestCachedProbeMatchesLongestBFSPath(t *testing.T) {
	const starts, seed = 100, 1
	insts := pinInstances(t) // Bd1, IC2, Diff3 and the golden corpus
	for _, name := range []gen.Table2Name{gen.Bd2, gen.Bd3, gen.IC1, gen.Diff1, gen.Diff2} {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, pinInstance{name: string(name), h: h})
	}
	for _, inst := range insts {
		name, h := inst.name, inst.h
		ig := intersect.Build(h, intersect.Options{})
		if ig.G.NumVertices() == 0 {
			continue
		}
		p := newProbe(ig.G, seed, starts)
		for i := starts - 1; i >= 0; i-- {
			u, v, depth := p.path(i)
			wu, wv, wdepth := ig.G.LongestBFSPath(engine.StartRNG(seed, i))
			if u != wu || v != wv || depth != wdepth {
				t.Errorf("%s start %d: probe (%d,%d) depth %d, LongestBFSPath (%d,%d) depth %d",
					name, i, u, v, depth, wu, wv, wdepth)
			}
		}
		if got, want := p.sweeps(), countSources(ig, Options{Starts: starts, Seed: seed}); got != want {
			t.Errorf("%s: the probe swept %d sources, counted %d", name, got, want)
		}
	}
}

// TestProbeBlocksIndependentOfParallelism runs 200 starts, four probe
// blocks, on a CSR dual (IC2) and a bitset-row dual (Bd1): the blocks
// workers probe concurrently must give every output of a serial run,
// and each distinct source must be swept once.
func TestProbeBlocksIndependentOfParallelism(t *testing.T) {
	for _, name := range []gen.Table2Name{gen.IC2, gen.Bd1} {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Starts: 200, Seed: 1}
		var runs [2]*Result
		for k, par := range []int{1, 4} {
			opts.Parallelism = par
			if runs[k], err = Bipartition(h, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		a, b := runs[0], runs[1]
		if a.Stats.BitsetDual != (name == gen.Bd1) {
			t.Errorf("%s: BitsetDual = %v", name, a.Stats.BitsetDual)
		}
		if !slices.Equal(a.Stats.Engine.Cuts, b.Stats.Engine.Cuts) {
			t.Errorf("%s: per-start cuts differ between Parallelism 1 and 4", name)
		}
		if a.Stats.Engine.BestStart != b.Stats.Engine.BestStart {
			t.Errorf("%s: best start %d at Parallelism 1, %d at 4", name, a.Stats.Engine.BestStart, b.Stats.Engine.BestStart)
		}
		if !slices.Equal(a.Partition.Sides(), b.Partition.Sides()) {
			t.Errorf("%s: partitions differ between Parallelism 1 and 4", name)
		}
		if a.Stats.DistinctPairs != b.Stats.DistinctPairs {
			t.Errorf("%s: DistinctPairs %d at Parallelism 1, %d at 4", name, a.Stats.DistinctPairs, b.Stats.DistinctPairs)
		}
		want := countSources(intersect.Build(h, intersect.Options{}), opts)
		for k, r := range runs {
			if r.Stats.ProbeSweeps != want {
				t.Errorf("%s: ProbeSweeps = %d at Parallelism %d, counted %d", name, r.Stats.ProbeSweeps, []int{1, 4}[k], want)
			}
		}
	}
}

// TestProbeSweepsCountsDistinctSources checks the reported count on
// every Table-2 dual: IC2's 50 starts sweep 56 sources where two sweeps
// per start would be 100.
func TestProbeSweepsCountsDistinctSources(t *testing.T) {
	for _, name := range gen.Table2Names() {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Starts: 50, Seed: 1}
		res, err := Bipartition(h, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Disconnected {
			t.Fatalf("%s: intersection graph is disconnected; no start sweeps", name)
		}
		want := countSources(intersect.Build(h, intersect.Options{}), opts)
		if got := res.Stats.ProbeSweeps; got != want {
			t.Errorf("%s: ProbeSweeps = %d, counted %d", name, got, want)
		}
		if name == gen.IC2 && res.Stats.ProbeSweeps != 56 {
			t.Errorf("IC2: ProbeSweeps = %d, want 56", res.Stats.ProbeSweeps)
		}
		t.Logf("%s: %d sweeps in %d starts, %d distinct pairs", name, res.Stats.ProbeSweeps, opts.Starts, res.Stats.DistinctPairs)
	}
}

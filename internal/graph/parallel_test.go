package graph

// Differential tests for the frontier-chunked parallel double BFS: for
// every input and every worker count the labeling must be bit-for-bit
// identical to the serial kernel — the same contract the multi-start
// engine guarantees one level up. The fuzz target extends the check to
// arbitrary CSRs, and the oversubscription test runs the chunked path
// under -race with far more workers than GOMAXPROCS.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomConnectedGraph builds a connected random graph on n vertices:
// a random spanning tree plus extra random edges.
func randomConnectedGraph(t testing.TB, n, extra int, rng *rand.Rand) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDoubleBFSSidesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ n, extra int }{
		{2, 0}, {3, 2}, {17, 10}, {100, 150}, {257, 64},
		// Larger than minParallelFrontier so the chunked path actually
		// engages (a star's first level has n-1 frontier vertices).
		{1200, 4000}, {3000, 9000},
	}
	for _, sh := range shapes {
		g := randomConnectedGraph(t, sh.n, sh.extra, rng)
		for trial := 0; trial < 8; trial++ {
			u, v := rng.Intn(sh.n), rng.Intn(sh.n)
			want := g.DoubleBFSSides(u, v)
			for _, workers := range []int{1, 2, 3, 4, 8} {
				got := g.DoubleBFSSidesParallel(u, v, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d u=%d v=%d workers=%d: parallel labeling diverges from serial",
						sh.n, u, v, workers)
				}
			}
		}
	}
}

func TestDoubleBFSSidesParallelEdgeCases(t *testing.T) {
	empty := NewBuilder(0).MustBuild()
	if got := empty.DoubleBFSSidesParallel(0, 0, 4); len(got) != 0 {
		t.Fatalf("empty graph: got %v", got)
	}

	single := NewBuilder(1).MustBuild()
	if got := single.DoubleBFSSidesParallel(0, 0, 4); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("single vertex: got %v, want [0]", got)
	}

	// u == v: the whole reachable set belongs to side 0, as in serial.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	want := g.DoubleBFSSides(1, 1)
	if got := g.DoubleBFSSidesParallel(1, 1, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("u==v: got %v, want %v", got, want)
	}
	// Vertex 3 is isolated: Unreached under both kernels.
	if want[3] != Unreached {
		t.Fatalf("isolated vertex labeled %d, want Unreached", want[3])
	}

	// Disconnected sources: each side claims its own component.
	b2 := NewBuilder(6)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.AddEdge(3, 4)
	g2 := b2.MustBuild()
	want2 := g2.DoubleBFSSides(0, 3)
	if got := g2.DoubleBFSSidesParallel(0, 3, 4); !reflect.DeepEqual(got, want2) {
		t.Fatalf("disconnected: got %v, want %v", got, want2)
	}
}

func TestDoubleBFSSidesParallelIntoReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(t, 800, 2400, rng)
	n := g.NumVertices()
	side := make([]int, n)
	f0 := make([]int, 0, n)
	f1 := make([]int, 0, n)
	next := make([]int, 0, n)
	var stats ParallelBFSStats
	for trial := 0; trial < 5; trial++ {
		u, v := rng.Intn(n), rng.Intn(n)
		want := g.DoubleBFSSides(u, v)
		got := g.DoubleBFSSidesParallelInto(u, v, 4, side, f0, f1, next, &stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Into variant diverges from serial", trial)
		}
		if stats.Levels == 0 || stats.Candidates == 0 {
			t.Fatalf("trial %d: stats not populated: %+v", trial, stats)
		}
		if stats.CriticalPath > stats.Candidates {
			t.Fatalf("trial %d: critical path %d exceeds total work %d", trial, stats.CriticalPath, stats.Candidates)
		}
	}
}

func TestDoubleBFSSidesParallelStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(t, 2000, 7000, rng)
	var first ParallelBFSStats
	for trial := 0; trial < 3; trial++ {
		var stats ParallelBFSStats
		g.DoubleBFSSidesParallelInto(0, g.NumVertices()-1, 8,
			make([]int, g.NumVertices()), nil, nil, nil, &stats)
		if trial == 0 {
			first = stats
			if first.ParallelLevels == 0 {
				t.Fatalf("chunked path never engaged: %+v", first)
			}
			continue
		}
		if stats != first {
			t.Fatalf("stats vary across identical runs: %+v vs %+v", stats, first)
		}
	}
}

// TestDoubleBFSParallelOversubscribed floods the chunked path with far
// more workers than GOMAXPROCS — the regime where scheduling order is
// least predictable — and checks the labeling is still serial-identical.
// Run under -race in CI, it also proves the level scans are data-race
// free.
func TestDoubleBFSParallelOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(t, 2500, 8000, rng)
	for trial := 0; trial < 6; trial++ {
		u, v := rng.Intn(2500), rng.Intn(2500)
		want := g.DoubleBFSSides(u, v)
		got := g.DoubleBFSSidesParallel(u, v, 16)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: oversubscribed parallel labeling diverges", trial)
		}
	}
}

// FuzzParallelDoubleBFS decodes arbitrary bytes into a graph and source
// pair and checks the parallel kernel against DoubleBFSSidesInto, and
// the early-stopping sweeps (both double-BFS policies and Eccentricity
// from every vertex) against their full-scan references. The encoding
// is deliberately permissive (any bytes make some graph) so
// coverage-guided exploration can reach unusual shapes: multi-component
// graphs, stars, paths, self-pair sources.
func FuzzParallelDoubleBFS(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 0, 3}, uint8(0), uint8(3), uint8(2))
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4}, uint8(1), uint8(4), uint8(4))
	f.Add([]byte{3, 0, 1}, uint8(2), uint8(2), uint8(8))
	f.Add([]byte{0}, uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, su, sv, workers uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		b := NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected in-range edges: %v", err)
		}
		u, v := int(su)%n, int(sv)%n
		want := g.DoubleBFSSides(u, v)
		w := int(workers)%9 + 1
		got := g.DoubleBFSSidesParallel(u, v, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d u=%d v=%d workers=%d: parallel %v, serial %v", n, u, v, w, got, want)
		}
		checkAgainstReference(t, "fuzz", g, [][2]int{{u, v}})
	})
}

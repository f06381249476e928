package fm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/kl"
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

func randomHG(rng *rand.Rand, n, m, maxSize int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		size := 2 + rng.Intn(maxSize-1)
		pins := make([]int, size)
		for j := range pins {
			pins[j] = rng.Intn(n)
		}
		b.AddEdge(pins...)
	}
	return b.MustBuild()
}

func TestErrors(t *testing.T) {
	h := mkHG(t, 1, [][]int{{0}})
	if _, err := Bisect(h, Options{}); err == nil {
		t.Error("accepted 1-vertex hypergraph")
	}
	h2 := mkHG(t, 4, [][]int{{0, 1}})
	if _, err := Improve(h2, partition.New(4), Options{}); err == nil {
		t.Error("accepted incomplete partition")
	}
}

func TestNeverWorseThanInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(20)
		h := randomHG(rng, n, n+rng.Intn(2*n), 4)
		p := kl.RandomBisection(n, rng)
		before := partition.CutSize(h, p)
		res, err := Improve(h, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize > before {
			t.Errorf("trial %d: FM worsened cut %d → %d", trial, before, res.CutSize)
		}
		if got := partition.CutSize(h, res.Partition); got != res.CutSize {
			t.Errorf("trial %d: reported %d != recomputed %d", trial, res.CutSize, got)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestBalanceRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(20)
		h := randomHG(rng, n, 2*n, 4)
		res, err := Bisect(h, Options{Seed: int64(trial), BalanceFraction: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		lw, rw := int64(0), int64(0)
		for v := 0; v < n; v++ {
			if res.Partition.Side(v) == partition.Left {
				lw += h.VertexWeight(v)
			} else {
				rw += h.VertexWeight(v)
			}
		}
		minSide := int64(float64(h.TotalVertexWeight()) * 0.4)
		if lw < minSide || rw < minSide {
			t.Errorf("trial %d: balance violated %d|%d (min %d)", trial, lw, rw, minSide)
		}
	}
}

func TestFindsBridgeCut(t *testing.T) {
	b := hypergraph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
		b.AddEdge(6+i, 6+(i+1)%6)
	}
	b.AddEdge(0, 6)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 5; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != 1 {
		t.Errorf("best FM cut = %d, want 1", best)
	}
}

func TestMatchesBruteForceOnSmall(t *testing.T) {
	h := mkHG(t, 10, [][]int{
		{0, 1, 2}, {2, 3, 4}, {0, 4}, {1, 3},
		{5, 6, 7}, {7, 8, 9}, {5, 9}, {6, 8},
		{4, 5},
	})
	_, opt, err := bruteforce.MinCut(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	best := 1 << 30
	for seed := int64(0); seed < 10; seed++ {
		res, err := Bisect(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize < best {
			best = res.CutSize
		}
	}
	if best != opt {
		t.Errorf("best FM cut = %d, optimum = %d", best, opt)
	}
}

// TestImproveRespectsFixed: vertices the constraint pins never move,
// and a pin vector longer than the hypergraph is refused.
func TestImproveRespectsFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(10)
		h := randomHG(rng, n, 2*n, 4)
		p := kl.RandomBisection(n, rng)
		c := partition.Constraint{FixedSide: make([]int8, n)}
		var pinnedV []int
		var pinnedS []partition.Side
		for v := 0; v < n; v++ {
			c.FixedSide[v] = partition.FreeVertex
			if rng.Intn(4) == 0 {
				c.FixedSide[v] = int8(p.Side(v))
				pinnedV = append(pinnedV, v)
				pinnedS = append(pinnedS, p.Side(v))
			}
		}
		res, err := Improve(h, p, Options{Constraint: c})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range pinnedV {
			if res.Partition.Side(v) != pinnedS[i] {
				t.Errorf("trial %d: fixed vertex %d moved", trial, v)
			}
		}
	}
	h := randomHG(rng, 6, 10, 3)
	p := kl.RandomBisection(6, rng)
	if _, err := Improve(h, p, Options{Constraint: partition.Constraint{FixedSide: make([]int8, 7)}}); err == nil {
		t.Error("accepted a pin vector longer than the hypergraph")
	}
}

// TestPropertyIncrementalGainsExact: after updateGainsAndMove, every
// unlocked vertex's tracked gain equals a fresh O(degree) computation.
func TestPropertyIncrementalGainsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(14)
		h := randomHG(rng, n, 2+rng.Intn(25), 5)
		p := kl.RandomBisection(n, rng)
		s, err := cutstate.New(h, p)
		if err != nil {
			return false
		}
		locked := make([]bool, n)
		gain := make([]int, n)
		bq := newBuckets(h.MaxVertexDegree())
		for v := 0; v < n; v++ {
			gain[v] = s.Gain(v)
		}
		// Move a few random vertices, locking them as FM would.
		for step := 0; step < 5 && step < n; step++ {
			v := rng.Intn(n)
			for locked[v] {
				v = (v + 1) % n
			}
			updateGainsAndMove(s, v, locked, gain, bq)
			locked[v] = true
			for u := 0; u < n; u++ {
				if !locked[u] && gain[u] != s.Gain(u) {
					return false
				}
			}
		}
		return s.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBucketsPopOrder(t *testing.T) {
	bq := newBuckets(3)
	bq.push(0, -3)
	bq.push(1, 2)
	bq.push(2, 0)
	always := func(int, int) bool { return true }
	if v, ok := bq.pop(always); !ok || v != 1 {
		t.Errorf("first pop = %d, want 1 (gain 2)", v)
	}
	if v, ok := bq.pop(always); !ok || v != 2 {
		t.Errorf("second pop = %d, want 2 (gain 0)", v)
	}
	if v, ok := bq.pop(always); !ok || v != 0 {
		t.Errorf("third pop = %d, want 0 (gain -3)", v)
	}
	if _, ok := bq.pop(always); ok {
		t.Error("pop on empty buckets succeeded")
	}
}

func TestBucketsStaleSkipped(t *testing.T) {
	bq := newBuckets(2)
	bq.push(0, 2)
	bq.push(0, 1) // gain changed; old entry stale
	cur := map[int]int{0: 1}
	v, ok := bq.pop(func(v, g int) bool { return cur[v] == g })
	if !ok || v != 0 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
	if _, ok := bq.pop(func(v, g int) bool { return cur[v] == g }); ok {
		t.Error("stale entry accepted")
	}
}

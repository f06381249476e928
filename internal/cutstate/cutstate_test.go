package cutstate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

func mkState(t *testing.T, n int, edges [][]int, sides ...partition.Side) *State {
	t.Helper()
	h, err := hypergraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(h, partition.FromSides(sides))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsIncomplete(t *testing.T) {
	h, err := hypergraph.FromEdges(2, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(h, partition.New(2)); err == nil {
		t.Error("accepted incomplete partition")
	}
}

func TestInitialAccounting(t *testing.T) {
	s := mkState(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}},
		partition.Left, partition.Left, partition.Right, partition.Right)
	if s.Cut() != 1 {
		t.Errorf("Cut = %d, want 1", s.Cut())
	}
	l, r := s.Weights()
	if l != 2 || r != 2 {
		t.Errorf("Weights = %d|%d", l, r)
	}
	if s.Imbalance() != 0 {
		t.Errorf("Imbalance = %d", s.Imbalance())
	}
	if nl, nr := s.Counts(1); nl != 1 || nr != 1 {
		t.Errorf("Counts(1) = %d,%d", nl, nr)
	}
}

func TestGainMatchesMove(t *testing.T) {
	s := mkState(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}},
		partition.Left, partition.Left, partition.Right, partition.Right)
	// Moving vertex 1 to the right: net {0,1} becomes cut (-1), net
	// {1,2} becomes uncut (+1) → gain 0.
	if g := s.Gain(1); g != 0 {
		t.Errorf("Gain(1) = %d, want 0", g)
	}
	// Moving vertex 0: net {0,1} becomes... 0 is alone? No: {0,1} both
	// left; moving 0 makes it cut → gain -1.
	if g := s.Gain(0); g != -1 {
		t.Errorf("Gain(0) = %d, want -1", g)
	}
	got := s.Move(0)
	if got != -1 {
		t.Errorf("Move(0) realized %d, want -1", got)
	}
	if s.Cut() != 2 {
		t.Errorf("Cut after move = %d, want 2", s.Cut())
	}
	if s.Side(0) != partition.Right {
		t.Error("vertex 0 not moved")
	}
	if err := s.Verify(); err != nil {
		t.Error(err)
	}
}

func TestSwapGainSharedNet(t *testing.T) {
	// Net {0,1} with 0 left and 1 right: swapping them keeps the net
	// cut, so SwapGain must be 0 even though Gain(0)+Gain(1) = 2.
	s := mkState(t, 2, [][]int{{0, 1}}, partition.Left, partition.Right)
	if g := s.Gain(0) + s.Gain(1); g != 2 {
		t.Fatalf("individual gains sum = %d, want 2", g)
	}
	if g := s.SwapGain(0, 1); g != 0 {
		t.Errorf("SwapGain = %d, want 0", g)
	}
	// SwapGain must not mutate.
	if s.Cut() != 1 || s.Side(0) != partition.Left {
		t.Error("SwapGain mutated the state")
	}
	if err := s.Verify(); err != nil {
		t.Error(err)
	}
}

// TestPropertyIncrementalAgreesWithScratch: a random walk of moves
// keeps every incremental quantity equal to a from-scratch recompute,
// and Gain always predicts Move.
func TestPropertyIncrementalAgreesWithScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := 1 + rng.Intn(20)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			size := 1 + rng.Intn(4)
			pins := make([]int, size)
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, int64(rng.Intn(5)))
		}
		h, err := b.Build()
		if err != nil {
			return false
		}
		p := partition.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				p.Assign(v, partition.Left)
			} else {
				p.Assign(v, partition.Right)
			}
		}
		s, err := New(h, p)
		if err != nil {
			return false
		}
		for step := 0; step < 25; step++ {
			v := rng.Intn(n)
			predicted := s.Gain(v)
			realized := s.Move(v)
			if predicted != realized {
				return false
			}
			if s.Cut() != partition.CutSize(h, s.Partition()) {
				return false
			}
		}
		return s.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertySwapGainExact: SwapGain equals the scratch difference.
func TestPropertySwapGainExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		m := 2 + rng.Intn(15)
		b := hypergraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			size := 2 + rng.Intn(3)
			pins := make([]int, size)
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h, err := b.Build()
		if err != nil {
			return false
		}
		p := partition.New(n)
		for v := 0; v < n; v++ {
			if v%2 == 0 {
				p.Assign(v, partition.Left)
			} else {
				p.Assign(v, partition.Right)
			}
		}
		s, err := New(h, p)
		if err != nil {
			return false
		}
		a := 2 * rng.Intn(n/2)
		bb := 2*rng.Intn(n/2) + 1
		before := partition.CutSize(h, s.Partition())
		got := s.SwapGain(a, bb)
		q := s.Partition().Clone()
		q.Assign(a, partition.Right)
		q.Assign(bb, partition.Left)
		want := before - partition.CutSize(h, q)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMoveWithGainDeltasKeepsGainsExact: gains maintained only through
// the reported deltas, plus the moved vertex's own negation, equal
// Gain recomputed from scratch for every vertex after every move.
func TestMoveWithGainDeltasKeepsGainsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		b := hypergraph.NewBuilder(n)
		for i := rng.Intn(3 * n); i >= 0; i-- {
			pins := make([]int, 1+rng.Intn(6))
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		p := partition.New(n)
		for v := 0; v < n; v++ {
			p.Assign(v, partition.Side(rng.Intn(2)))
		}
		s, err := New(h, p)
		if err != nil {
			t.Fatal(err)
		}
		gain := make([]int, n)
		for v := range gain {
			gain[v] = s.Gain(v)
		}
		for step := 0; step < 30; step++ {
			v := rng.Intn(n)
			if got := s.MoveWithGainDeltas(v, func(u, d int) {
				if u == v {
					t.Fatalf("trial %d: delta reported for the moved vertex %d", trial, v)
				}
				gain[u] += d
			}); got != gain[v] {
				t.Fatalf("trial %d: moving %d realized %d, its gain was %d", trial, v, got, gain[v])
			}
			gain[v] = -gain[v]
			for u := range gain {
				if want := s.Gain(u); gain[u] != want {
					t.Fatalf("trial %d step %d: vertex %d has gain %d, recomputed %d", trial, step, u, gain[u], want)
				}
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

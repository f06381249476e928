package verify

import (
	"strings"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/hypergraph"
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

func mkPart(sides ...partition.Side) *partition.Bipartition {
	p := partition.New(len(sides))
	for v, s := range sides {
		p.Assign(v, s)
	}
	return p
}

const L, R = partition.Left, partition.Right

func TestCheckAcceptsAndRecomputes(t *testing.T) {
	h := mkHG(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3}})
	rep, err := Check(h, mkPart(L, L, R, R))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CutSize != 2 || rep.WeightedCut != 2 {
		t.Errorf("cut = %d (weighted %d), want 2", rep.CutSize, rep.WeightedCut)
	}
	if rep.Left != 2 || rep.Right != 2 || rep.LeftWeight != 2 || rep.RightWeight != 2 {
		t.Errorf("sides %d|%d weights %d|%d", rep.Left, rep.Right, rep.LeftWeight, rep.RightWeight)
	}
}

func TestCheckRejectsBadPartitions(t *testing.T) {
	h := mkHG(t, 3, [][]int{{0, 1}, {1, 2}})
	cases := []struct {
		name string
		p    *partition.Bipartition
		want string
	}{
		{"nil", nil, "nil partition"},
		{"wrong-length", partition.New(2), "covers 2 vertices"},
		{"unassigned", mkPart(L, partition.Unassigned, R), "unassigned"},
		{"empty-side", mkPart(L, L, L), "side empty"},
	}
	for _, tc := range cases {
		if _, err := Check(h, tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckCutAndBounds(t *testing.T) {
	h := mkHG(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}})
	p := mkPart(L, L, R, R)
	if _, err := CheckCut(h, p, 1); err != nil {
		t.Errorf("correct claim rejected: %v", err)
	}
	if _, err := CheckCut(h, p, 2); err == nil {
		t.Error("wrong claimed cutsize accepted")
	}
	if _, err := CheckEpsilon(h, p, 0); err != nil {
		t.Errorf("balanced partition rejected: %v", err)
	}
	if _, err := CheckEpsilon(h, mkPart(L, R, R, R), 0.4); err == nil {
		t.Error("3|1 split accepted at epsilon 0.4 (max side 2)")
	}
	hw := func() *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(2, 3)
		b.SetVertexWeight(0, 10)
		return b.MustBuild()
	}()
	// Total 13, ceil 7: the 11|2 split needs a max side of 11.
	if _, err := CheckConstraint(hw, mkPart(L, L, R, R), partition.Constraint{Epsilon: 0.58}); err != nil {
		t.Errorf("11|2 split rejected at epsilon 0.58 (max side 11): %v", err)
	}
	if _, err := CheckConstraint(hw, mkPart(L, L, R, R), partition.Constraint{Epsilon: 0.5}); err == nil {
		t.Error("11|2 split accepted at epsilon 0.5 (max side 10)")
	}
}

func TestCheckKWay(t *testing.T) {
	h := mkHG(t, 6, [][]int{{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}, {1, 3, 5}})
	rep, err := CheckKWay(h, []int{0, 0, 1, 1, 2, 2}, 3, partition.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	// Nets {0,2,4} and {1,3,5} each touch all 3 parts: λ−1 = 2 each.
	if rep.CutNets != 2 || rep.Connectivity != 4 {
		t.Errorf("cutNets=%d connectivity=%d, want 2 and 4", rep.CutNets, rep.Connectivity)
	}
	if rep.PartSizes[0] != 2 || rep.PartWeights[2] != 2 {
		t.Errorf("part accounting wrong: %v %v", rep.PartSizes, rep.PartWeights)
	}

	if _, err := CheckKWay(h, []int{0, 0, 1, 1, 2, 3}, 3, partition.Constraint{}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := CheckKWay(h, []int{0, 0, 1, 1, 1, 1}, 3, partition.Constraint{}); err == nil {
		t.Error("empty part accepted")
	}
	if _, err := CheckKWay(h, []int{0, 0, 1}, 3, partition.Constraint{}); err == nil {
		t.Error("short labeling accepted")
	}

	// k = 2 ties into the bipartition oracle: cut nets == cutsize.
	rep2, err := CheckKWay(h, []int{0, 0, 0, 1, 1, 1}, 2, partition.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	p := mkPart(L, L, L, R, R, R)
	two, err := Check(h, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CutNets != two.CutSize {
		t.Errorf("k=2 cut %d != bipartition cut %d", rep2.CutNets, two.CutSize)
	}
}

// TestOracleExhaustive runs Check over every bipartition of every
// 2- and 3-uniform hypergraph on four vertices — the full cross-product
// of the metric layer, the cutstate walk and the recomputation.
func TestOracleExhaustive(t *testing.T) {
	insts := append(ExhaustiveUniform(4, 2), ExhaustiveUniform(4, 3)...)
	for _, inst := range insts {
		n := inst.H.NumVertices()
		for mask := 1; mask < (1<<n)-1; mask++ {
			p := partition.New(n)
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					p.Assign(v, partition.Left)
				} else {
					p.Assign(v, partition.Right)
				}
			}
			rep, err := Check(inst.H, p)
			if err != nil {
				t.Fatalf("%s mask %d: %v", inst.Name, mask, err)
			}
			if rep.Left+rep.Right != n {
				t.Fatalf("%s mask %d: side counts %d|%d", inst.Name, mask, rep.Left, rep.Right)
			}
		}
	}
}

func TestSmallInstancesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, inst := range SmallInstances() {
		if seen[inst.Name] {
			t.Errorf("duplicate instance name %q", inst.Name)
		}
		seen[inst.Name] = true
		if n := inst.H.NumVertices(); n < 2 || n > 12 {
			t.Errorf("%s: %d vertices outside [2,12]", inst.Name, n)
		}
		if inst.H.NumEdges() == 0 {
			t.Errorf("%s: no edges", inst.Name)
		}
	}
	if len(seen) < 20 {
		t.Errorf("only %d small instances", len(seen))
	}
}

// TestPlantedInstancesAreOptimal re-proves the pinned planted seeds:
// the planted cutsize is both the exact minimum bisection and the
// exact unconstrained minimum cut, so the differential suite may
// assert Algorithm I recovers it exactly.
func TestPlantedInstancesAreOptimal(t *testing.T) {
	insts := PlantedInstances()
	if len(insts) < 5 {
		t.Fatalf("only %d planted instances", len(insts))
	}
	for _, inst := range insts {
		_, bis, err := bruteforce.MinBisection(inst.H)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if bis != inst.Cut {
			t.Errorf("%s: min bisection %d, planted %d", inst.Name, bis, inst.Cut)
		}
		_, unc, err := bruteforce.MinCutUnconstrained(inst.H)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if unc != inst.Cut {
			t.Errorf("%s: unconstrained min cut %d, planted %d", inst.Name, unc, inst.Cut)
		}
	}
}

func TestCheckEpsilon(t *testing.T) {
	// Weighted 4-vertex instance: total 10, ceil 5.
	b := hypergraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.SetVertexWeight(0, 4)
	b.SetVertexWeight(1, 3)
	b.SetVertexWeight(2, 2)
	b.SetVertexWeight(3, 1)
	h := b.MustBuild()

	// 7|3 split: admissible at eps 0.4 (max 7), rejected at 0.2 (max 6).
	p := mkPart(L, L, R, R)
	if _, err := CheckEpsilon(h, p, 0.4); err != nil {
		t.Errorf("CheckEpsilon(0.4) rejected a 7|3 split: %v", err)
	}
	if _, err := CheckEpsilon(h, p, 0.2); err == nil {
		t.Error("CheckEpsilon(0.2) accepted a 7|3 split (max side 6)")
	}
	if _, err := CheckEpsilon(h, p, -1); err == nil {
		t.Error("CheckEpsilon accepted a negative epsilon")
	}
	// 6|4 split passes at 0.2.
	if _, err := CheckEpsilon(h, mkPart(L, R, L, R), 0.2); err != nil {
		t.Errorf("CheckEpsilon(0.2) rejected a 6|4 split: %v", err)
	}
}

func TestCheckFixed(t *testing.T) {
	h := mkHG(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}})
	p := mkPart(L, L, R, R)
	if _, err := CheckFixed(h, p, []int8{0, -1, -1, 1}); err != nil {
		t.Errorf("CheckFixed rejected a respected assignment: %v", err)
	}
	if _, err := CheckFixed(h, p, []int8{1, -1, -1, -1}); err == nil {
		t.Error("CheckFixed accepted a violated pin (vertex 0 fixed Right, sits Left)")
	}
	// Short slice: only the covered prefix is checked.
	if _, err := CheckFixed(h, p, []int8{0}); err != nil {
		t.Errorf("CheckFixed with short slice: %v", err)
	}
	if _, err := CheckFixed(h, p, nil); err != nil {
		t.Errorf("CheckFixed with nil slice: %v", err)
	}
}

func TestCheckConstraint(t *testing.T) {
	h := mkHG(t, 4, [][]int{{0, 1}, {1, 2}, {2, 3}})
	p := mkPart(L, L, R, R)
	if _, err := CheckConstraint(h, p, partition.Constraint{}); err != nil {
		t.Errorf("zero constraint: %v", err)
	}
	ok := partition.Constraint{Epsilon: 0.1, FixedSide: []int8{0, -1, -1, 1}}
	if _, err := CheckConstraint(h, p, ok); err != nil {
		t.Errorf("satisfied constraint rejected: %v", err)
	}
	bad := partition.Constraint{Epsilon: 0.1, FixedSide: []int8{1, -1, -1, -1}}
	if _, err := CheckConstraint(h, p, bad); err == nil {
		t.Error("violated fixed pin accepted")
	}
	if _, err := CheckConstraint(h, p, partition.Constraint{FixedSide: []int8{3}}); err == nil {
		t.Error("out-of-range part id accepted")
	}
}

func TestCheckBalanceZeroWeightVertices(t *testing.T) {
	// The ε contract bounds weight, not vertex counts: zero-weight
	// vertices do not balance a side however many there are. One vertex
	// of weight 2 against four of weight 0 is a 2|0 split of total 2.
	b := hypergraph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.SetVertexWeight(0, 2)
	for v := 1; v < 5; v++ {
		b.SetVertexWeight(v, 0)
	}
	h := b.MustBuild()
	p := mkPart(L, R, R, R, R)
	rep, err := CheckEpsilon(h, p, 1)
	if err != nil {
		t.Fatalf("CheckEpsilon(1) on a 2|0 weight split (max side 2): %v", err)
	}
	if rep.Left != 1 || rep.Right != 4 || rep.LeftWeight != 2 || rep.RightWeight != 0 {
		t.Errorf("sides %d|%d weights %d|%d, want 1|4 and 2|0", rep.Left, rep.Right, rep.LeftWeight, rep.RightWeight)
	}
	if _, err := CheckEpsilon(h, p, 0.5); err == nil {
		t.Error("CheckEpsilon(0.5) accepted a 2|0 weight split (max side 1)")
	}
}

func TestCheckBalanceSingleVertex(t *testing.T) {
	// A single-vertex hypergraph has no bipartition at all: one side is
	// always empty, so every balance check must fail with the side-empty
	// diagnosis rather than a panic or a false pass.
	b := hypergraph.NewBuilder(1)
	h := b.MustBuild()
	p := partition.New(1)
	p.Assign(0, partition.Left)
	if _, err := CheckConstraint(h, p, partition.Constraint{Epsilon: 1, FixedSide: []int8{0}}); err == nil {
		t.Fatal("CheckConstraint accepted a single-vertex 'bipartition'")
	} else if !strings.Contains(err.Error(), "side empty") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
	if _, err := CheckEpsilon(h, p, 1); err == nil {
		t.Fatal("CheckEpsilon accepted a single-vertex 'bipartition'")
	}
}

// TestCheckKWayConstraint: the K-way oracle holds a labeling to the
// contract. Three modules weighing 707, 698 and 1528 in their own parts
// exceed the 3-way bound ⌊1.1·⌈2933/3⌉⌋ = 1075 at ε = 0.1; 978, 978 and
// 977 meet it; and a fixed module off its part is rejected.
func TestCheckKWayConstraint(t *testing.T) {
	weighted := func(ws ...int64) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(len(ws))
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		for v, w := range ws {
			b.SetVertexWeight(v, w)
		}
		return b.MustBuild()
	}
	part := []int{0, 1, 2}
	eps := partition.Constraint{Epsilon: 0.1}
	lopsided := weighted(707, 698, 1528)
	if _, err := CheckKWay(lopsided, part, 3, partition.Constraint{}); err != nil {
		t.Errorf("no ε: %v", err)
	}
	if _, err := CheckKWay(lopsided, part, 3, eps); err == nil || !strings.Contains(err.Error(), "max part weight 1075") {
		t.Errorf("parts 707|698|1528 at ε=0.1: error %v, want the 1075 bound", err)
	}
	even := weighted(978, 978, 977)
	if _, err := CheckKWay(even, part, 3, eps); err != nil {
		t.Errorf("parts 978|978|977 at ε=0.1: %v", err)
	}
	if _, err := CheckKWay(even, part, 3, partition.Constraint{FixedSide: []int8{0, 2, -1}}); err == nil {
		t.Error("fixed vertex 1 pinned to part 2 accepted on part 1")
	}
	if _, err := CheckKWay(even, part, 3, partition.Constraint{FixedSide: []int8{0, 1}}); err != nil {
		t.Errorf("respected fixed prefix: %v", err)
	}
	if _, err := CheckKWay(even, part, 3, partition.Constraint{FixedSide: []int8{3}}); err == nil {
		t.Error("fixed part id 3 accepted at k=3")
	}
}

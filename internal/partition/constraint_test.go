package partition

import (
	"math"
	"testing"
)

// stubWeights implements the weighted interface for constraint tests.
type stubWeights []int64

func (s stubWeights) VertexWeight(v int) int64 { return s[v] }
func (s stubWeights) TotalVertexWeight() int64 {
	var t int64
	for _, w := range s {
		t += w
	}
	return t
}

// TestMaxSideWeightBoundaries is the satellite table test for the
// int64-truncation inconsistency: kway used tol = int64(b·total) while
// fm used minSide = int64((0.5−b)·total), which disagree at odd totals.
// Both now derive from MaxSideWeight; these rows pin the contract at
// the off-by-one boundary weights.
func TestMaxSideWeightBoundaries(t *testing.T) {
	cases := []struct {
		total   int64
		k       int
		epsilon float64
		wantMax int64
	}{
		// ε=0 admits exactly the ceil.
		{total: 10, k: 2, epsilon: 0, wantMax: 5},
		{total: 11, k: 2, epsilon: 0, wantMax: 6},
		{total: 1, k: 2, epsilon: 0, wantMax: 1},
		// Exact float boundaries must not round down: 1.2·5 and 1.2·11
		// are below their true value in binary floating point.
		{total: 10, k: 2, epsilon: 0.2, wantMax: 6},
		{total: 21, k: 2, epsilon: 0.2, wantMax: 13},
		{total: 22, k: 2, epsilon: 0.2, wantMax: 13},
		// Odd totals with the old fm default b=0.1 (ε=0.2 after the 2b
		// mapping).
		{total: 9, k: 2, epsilon: 0.2, wantMax: 6},
		{total: 15, k: 2, epsilon: 0.2, wantMax: 9},
		// Truncation: 1.1·8 = 8.8 floors to 8.
		{total: 16, k: 2, epsilon: 0.1, wantMax: 8},
		{total: 20, k: 2, epsilon: 0.1, wantMax: 11},
		// Clamped to the total for huge ε.
		{total: 10, k: 2, epsilon: 3, wantMax: 10},
		// K-way ceils per part.
		{total: 10, k: 4, epsilon: 0, wantMax: 3},
		{total: 12, k: 4, epsilon: 0.5, wantMax: 4},
		{total: 13, k: 4, epsilon: 0.25, wantMax: 5},
	}
	for _, tc := range cases {
		c := Constraint{Epsilon: tc.epsilon}
		if got := c.MaxSideWeight(tc.total, tc.k); got != tc.wantMax {
			t.Errorf("MaxSideWeight(total=%d, k=%d, eps=%g) = %d, want %d",
				tc.total, tc.k, tc.epsilon, got, tc.wantMax)
		}
		if tc.k == 2 {
			// The two derived quantities every partitioner uses must be
			// complements: minSide + maxSide = total, so fm's "side must
			// retain minSide" and kway's "side must not exceed maxSide"
			// can never disagree again.
			min := c.MinSideWeight(tc.total)
			if min+tc.wantMax != tc.total {
				t.Errorf("MinSideWeight(total=%d, eps=%g) = %d; want complement %d",
					tc.total, tc.epsilon, min, tc.total-tc.wantMax)
			}
		}
	}
}

func TestMaxSideWeightAdmitsCeil(t *testing.T) {
	// Every total must remain partitionable at ε=0: the bound can never
	// drop below ⌈total/k⌉.
	for total := int64(1); total <= 64; total++ {
		for k := 2; k <= 5; k++ {
			c := Constraint{}
			ceil := (total + int64(k) - 1) / int64(k)
			if got := c.MaxSideWeight(total, k); got < ceil {
				t.Fatalf("MaxSideWeight(%d, %d) = %d below ceil %d", total, k, got, ceil)
			}
		}
	}
}

func TestConstraintValidate(t *testing.T) {
	if err := (Constraint{Epsilon: -0.1}).Validate(4, 2); err == nil {
		t.Error("negative epsilon accepted")
	}
	if err := (Constraint{Epsilon: math.NaN()}).Validate(4, 2); err == nil {
		t.Error("NaN epsilon accepted")
	}
	if err := (Constraint{FixedSide: []int8{0, 1, -1, 0, 1}}).Validate(4, 2); err == nil {
		t.Error("FixedSide longer than vertex count accepted")
	}
	if err := (Constraint{FixedSide: []int8{2}}).Validate(4, 2); err == nil {
		t.Error("part id out of range accepted")
	}
	if err := (Constraint{FixedSide: []int8{-2}}).Validate(4, 2); err == nil {
		t.Error("part id below -1 accepted")
	}
	if err := (Constraint{Epsilon: 0.3, FixedSide: []int8{0, 1, -1}}).Validate(4, 2); err != nil {
		t.Errorf("valid constraint rejected: %v", err)
	}
}

func TestConstraintFixedHelpers(t *testing.T) {
	c := Constraint{FixedSide: []int8{0, -1, 1}}
	if !c.HasFixed() || c.IsZero() {
		t.Fatal("fixed constraint not recognized")
	}
	if c.Fixed(0) != 0 || c.Fixed(1) != FreeVertex || c.Fixed(2) != 1 || c.Fixed(99) != FreeVertex {
		t.Fatal("Fixed accessor wrong")
	}
	locked := c.FixedBools(5)
	want := []bool{true, false, true, false, false}
	for i := range want {
		if locked[i] != want[i] {
			t.Fatalf("FixedBools = %v, want %v", locked, want)
		}
	}
	if (Constraint{Epsilon: 0.1}).FixedBools(3) != nil {
		t.Fatal("FixedBools should be nil without fixed vertices")
	}

	p := New(4)
	for v := 0; v < 4; v++ {
		p.Assign(v, Right)
	}
	if n := c.ApplyFixed(p); n != 1 {
		t.Fatalf("ApplyFixed moved %d vertices, want 1", n)
	}
	if p.Side(0) != Left || p.Side(1) != Right || p.Side(2) != Right {
		t.Fatalf("ApplyFixed result wrong: %v", p.Sides())
	}
	if !c.RespectsFixed(p) {
		t.Fatal("RespectsFixed false after ApplyFixed")
	}
	p.Assign(2, Left)
	if c.RespectsFixed(p) {
		t.Fatal("RespectsFixed true for a moved fixed vertex")
	}
}

func TestConstraintInfeasible(t *testing.T) {
	h := stubWeights{5, 1, 1, 1} // total 8, maxSide at ε=0 is 4
	if err := (Constraint{Epsilon: 0, FixedSide: []int8{0, 0, -1, -1}}).Infeasible(h); err != nil {
		// ε=0 means no balance bound requested (zero-value semantics).
		t.Errorf("zero-epsilon constraint reported infeasible: %v", err)
	}
	c := Constraint{Epsilon: 0.25, FixedSide: []int8{0, 0, 0, -1}} // left fixed = 7 > 5
	if err := c.Infeasible(h); err == nil {
		t.Error("overweight fixed side not reported infeasible")
	}
	ok := Constraint{Epsilon: 0.25, FixedSide: []int8{0, -1, -1, 1}}
	if err := ok.Infeasible(h); err != nil {
		t.Errorf("feasible constraint reported infeasible: %v", err)
	}
}

func TestConstraintKey(t *testing.T) {
	if (Constraint{}).Key() != "" {
		t.Error("zero constraint must map to the empty key for journal back-compat")
	}
	a := Constraint{Epsilon: 0.1}
	b := Constraint{Epsilon: 0.2}
	if a.Key() == b.Key() {
		t.Error("different epsilons share a key")
	}
	f1 := Constraint{Epsilon: 0.1, FixedSide: []int8{0, -1, 1}}
	f2 := Constraint{Epsilon: 0.1, FixedSide: []int8{0, -1, -1}}
	f3 := Constraint{Epsilon: 0.1, FixedSide: []int8{0, -1, 1}}
	if f1.Key() == f2.Key() {
		t.Error("different fixed sets share a key")
	}
	if f1.Key() != f3.Key() {
		t.Error("identical constraints disagree on the key")
	}
	if f1.Key() == a.Key() {
		t.Error("fixed constraint collides with the pure-epsilon key")
	}
}

package graph

// Tests for the CSR adoption constructors (FromCSR, UncheckedCSR), the
// ValidateCSR oracle they rest on, the cached MaxDegree, and the
// buffer-reusing Into variants of the double-BFS cut.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestFromCSRAdoptsValidArrays(t *testing.T) {
	// Path 0-1-2.
	start := []int{0, 1, 3, 4}
	adj := []int{1, 0, 2, 1}
	g, err := FromCSR(start, adj)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %v", g)
	}
	if !reflect.DeepEqual(g.Neighbors(1), []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", g.Neighbors(1))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestFromCSRRejectsInvalid(t *testing.T) {
	for _, tc := range []struct {
		name    string
		start   []int
		adj     []int
		wantSub string
	}{
		{"empty start", nil, nil, "empty"},
		{"bad bounds", []int{0, 1}, []int{0, 0}, "bounds"},
		{"non-monotone", []int{0, 2, 1, 3}, []int{1, 2, 0}, "monotone"},
		{"out of range", []int{0, 1, 2}, []int{2, 0}, "out-of-range"},
		{"self-loop", []int{0, 1, 2}, []int{0, 0}, "self-loop"},
		{"unsorted row", []int{0, 2, 3, 4}, []int{2, 1, 0, 0}, "ascending"},
		{"duplicate entry", []int{0, 2, 4}, []int{1, 1, 0, 0}, "ascending"},
		{"asymmetric", []int{0, 1, 1}, []int{1}, "no reverse"},
	} {
		if _, err := FromCSR(tc.start, tc.adj); err == nil {
			t.Errorf("%s: FromCSR accepted invalid input", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestUncheckedCSRMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		b := NewBuilder(n)
		for e := 0; e < rng.Intn(20); e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		want := b.MustBuild()
		got := UncheckedCSR(want.start, want.adj)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: UncheckedCSR = %+v, want %+v", trial, got, want)
		}
		if err := got.ValidateCSR(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMaxDegreeCachedAcrossConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", NewBuilder(0).MustBuild(), 0},
		{"isolated", NewBuilder(3).MustBuild(), 0},
		{"star", func() *Graph {
			b := NewBuilder(5)
			for i := 1; i < 5; i++ {
				b.AddEdge(0, i)
			}
			return b.MustBuild()
		}(), 4},
	} {
		if got := tc.g.MaxDegree(); got != tc.want {
			t.Errorf("%s: MaxDegree = %d, want %d", tc.name, got, tc.want)
		}
		// The cached value must survive re-adoption of the same arrays.
		if got := UncheckedCSR(tc.g.start, tc.g.adj).MaxDegree(); got != tc.want {
			t.Errorf("%s: UncheckedCSR MaxDegree = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDoubleBFSIntoMatchesAllocating quick-checks that the Into
// variants label identically to the allocating wrappers on random
// graphs and random source pairs, including reused (dirty) buffers.
func TestDoubleBFSIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	side := make([]int, n)
	f0 := make([]int, 0, n)
	f1 := make([]int, 0, n)
	next := make([]int, 0, n)
	for trial := 0; trial < 100; trial++ {
		b := NewBuilder(n)
		for e := 0; e < 60; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		u, v := rng.Intn(n), rng.Intn(n)
		// Buffers are deliberately NOT cleared between trials: Into
		// variants must not depend on incoming contents.
		if got, want := g.DoubleBFSSidesInto(u, v, false, side, f0, f1, next), g.DoubleBFSSides(u, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DoubleBFSSidesInto(%d,%d,false) = %v, want %v", trial, u, v, got, want)
		}
		if got, want := g.DoubleBFSSidesInto(u, v, true, side, f0, f1, next), g.DoubleBFSSidesBalanced(u, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DoubleBFSSidesInto(%d,%d,true) = %v, want %v", trial, u, v, got, want)
		}
	}
}

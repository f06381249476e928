package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHypergraph(t *testing.T) {
	h, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumVertices() != 0 || h.NumEdges() != 0 || h.NumPins() != 0 {
		t.Errorf("empty hypergraph has %d vertices, %d edges, %d pins", h.NumVertices(), h.NumEdges(), h.NumPins())
	}
	if h.TotalVertexWeight() != 0 {
		t.Errorf("TotalVertexWeight = %d, want 0", h.TotalVertexWeight())
	}
	if h.MaxEdgeSize() != 0 || h.MaxVertexDegree() != 0 {
		t.Errorf("max stats on empty hypergraph nonzero")
	}
}

func TestBasicConstruction(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4, 0)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", h.NumVertices())
	}
	if h.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", h.NumEdges())
	}
	if h.NumPins() != 8 {
		t.Errorf("NumPins = %d, want 8", h.NumPins())
	}
	if got := h.EdgePins(0); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("EdgePins(0) = %v", got)
	}
	if got := h.EdgePins(2); !reflect.DeepEqual(got, []int{0, 3, 4}) {
		t.Errorf("EdgePins(2) = %v, want sorted [0 3 4]", got)
	}
	if got := h.VertexEdges(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("VertexEdges(0) = %v, want [0 2]", got)
	}
	if got := h.VertexEdges(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("VertexEdges(2) = %v, want [0 1]", got)
	}
	if h.VertexDegree(3) != 2 {
		t.Errorf("VertexDegree(3) = %d, want 2", h.VertexDegree(3))
	}
	if h.EdgeSize(1) != 2 {
		t.Errorf("EdgeSize(1) = %d, want 2", h.EdgeSize(1))
	}
	if h.TotalVertexWeight() != 5 {
		t.Errorf("TotalVertexWeight = %d, want 5 (unit default)", h.TotalVertexWeight())
	}
}

func TestDuplicatePinsMerged(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 2, 2, 1)
	h := b.MustBuild()
	if got := h.EdgePins(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("EdgePins(0) = %v, want [1 2]", got)
	}
	if h.NumPins() != 2 {
		t.Errorf("NumPins = %d, want 2", h.NumPins())
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("pin out of range", func(t *testing.T) {
		b := NewBuilder(2)
		b.AddEdge(0, 2)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted out-of-range pin")
		}
	})
	t.Run("negative pin", func(t *testing.T) {
		b := NewBuilder(2)
		b.AddEdge(-1, 0)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted negative pin")
		}
	})
	t.Run("empty edge", func(t *testing.T) {
		b := NewBuilder(2)
		b.AddEdge()
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted empty edge")
		}
	})
	t.Run("negative vertex weight", func(t *testing.T) {
		b := NewBuilder(2)
		b.AddEdge(0, 1)
		b.SetVertexWeight(0, -3)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted negative vertex weight")
		}
	})
	t.Run("negative edge weight", func(t *testing.T) {
		b := NewBuilder(2)
		e := b.AddEdge(0, 1)
		b.SetEdgeWeight(e, -1)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted negative edge weight")
		}
	})
}

func TestWeights(t *testing.T) {
	b := NewBuilder(3)
	e0 := b.AddEdge(0, 1)
	e1 := b.AddEdge(1, 2)
	b.SetVertexWeight(0, 10)
	b.SetVertexWeight(2, 0)
	b.SetEdgeWeight(e0, 4)
	h := b.MustBuild()
	if h.VertexWeight(0) != 10 || h.VertexWeight(1) != 1 || h.VertexWeight(2) != 0 {
		t.Errorf("vertex weights = %d,%d,%d", h.VertexWeight(0), h.VertexWeight(1), h.VertexWeight(2))
	}
	if h.TotalVertexWeight() != 11 {
		t.Errorf("TotalVertexWeight = %d, want 11", h.TotalVertexWeight())
	}
	if h.EdgeWeight(e0) != 4 || h.EdgeWeight(e1) != 1 {
		t.Errorf("edge weights = %d,%d", h.EdgeWeight(e0), h.EdgeWeight(e1))
	}
}

func TestNames(t *testing.T) {
	b := NewBuilder(2)
	e := b.AddEdge(0, 1)
	b.SetVertexName(0, "alpha")
	b.SetEdgeName(e, "netA")
	h := b.MustBuild()
	if !h.HasNames() {
		t.Error("HasNames = false")
	}
	if h.VertexName(0) != "alpha" {
		t.Errorf("VertexName(0) = %q", h.VertexName(0))
	}
	if h.VertexName(1) != "v1" {
		t.Errorf("VertexName(1) = %q, want synthesized v1", h.VertexName(1))
	}
	if h.EdgeName(e) != "netA" {
		t.Errorf("EdgeName = %q", h.EdgeName(e))
	}
}

func TestNamesAbsent(t *testing.T) {
	b := NewBuilder(1)
	b.AddEdge(0)
	h := b.MustBuild()
	if h.HasNames() {
		t.Error("HasNames = true for unnamed hypergraph")
	}
	if h.VertexName(0) != "v0" || h.EdgeName(0) != "e0" {
		t.Errorf("synthesized names = %q, %q", h.VertexName(0), h.EdgeName(0))
	}
}

func TestEdgeContains(t *testing.T) {
	h, err := FromEdges(6, [][]int{{0, 2, 4}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		e, v int
		want bool
	}{
		{0, 0, true}, {0, 2, true}, {0, 4, true},
		{0, 1, false}, {0, 3, false}, {0, 5, false},
		{1, 1, true}, {1, 5, true}, {1, 0, false},
	}
	for _, c := range cases {
		if got := h.EdgeContains(c.e, c.v); got != c.want {
			t.Errorf("EdgeContains(%d,%d) = %v, want %v", c.e, c.v, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	h, err := FromEdges(5, [][]int{{0, 1}, {0, 1, 2, 3}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxEdgeSize() != 4 {
		t.Errorf("MaxEdgeSize = %d, want 4", h.MaxEdgeSize())
	}
	if h.MaxVertexDegree() != 3 {
		t.Errorf("MaxVertexDegree = %d, want 3 (vertex 0)", h.MaxVertexDegree())
	}
	if got := h.AverageEdgeSize(); got != 8.0/3.0 {
		t.Errorf("AverageEdgeSize = %g, want %g", got, 8.0/3.0)
	}
	if h.IsGraph() {
		t.Error("IsGraph = true for hypergraph with a 4-pin edge")
	}
	g, err := FromEdges(3, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsGraph() {
		t.Error("IsGraph = false for a 2-uniform hypergraph")
	}
}

func TestComponents(t *testing.T) {
	// Two edge-connected blocks {0,1,2} and {3,4}, plus isolated vertex 5.
	h, err := FromEdges(6, [][]int{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	comp, k := h.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3 (got labeling %v)", k, comp)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("vertices 0,1,2 not in one component: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Errorf("vertices 3,4 not in one component: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("isolated vertex 5 merged into a component: %v", comp)
	}
}

func TestComponentsConnected(t *testing.T) {
	h, err := FromEdges(4, [][]int{{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	_, k := h.Components()
	if k != 1 {
		t.Errorf("components = %d, want 1", k)
	}
}

func TestFilterEdges(t *testing.T) {
	b := NewBuilder(5)
	b.SetVertexWeight(2, 7)
	e0 := b.AddEdge(0, 1)
	e1 := b.AddEdge(0, 1, 2, 3)
	e2 := b.AddEdge(3, 4)
	b.SetEdgeName(e0, "small0")
	b.SetEdgeName(e1, "big")
	b.SetEdgeName(e2, "small1")
	b.SetEdgeWeight(e2, 9)
	h := b.MustBuild()

	sub, origOf := h.FilterEdges(func(e int) bool { return h.EdgeSize(e) <= 2 })
	if sub.NumEdges() != 2 {
		t.Fatalf("filtered NumEdges = %d, want 2", sub.NumEdges())
	}
	if !reflect.DeepEqual(origOf, []int{0, 2}) {
		t.Errorf("origOf = %v, want [0 2]", origOf)
	}
	if sub.NumVertices() != 5 {
		t.Errorf("filtered NumVertices = %d, want 5", sub.NumVertices())
	}
	if sub.VertexWeight(2) != 7 {
		t.Errorf("vertex weight not preserved: %d", sub.VertexWeight(2))
	}
	if sub.EdgeWeight(1) != 9 {
		t.Errorf("edge weight not preserved: %d", sub.EdgeWeight(1))
	}
	if sub.EdgeName(1) != "small1" {
		t.Errorf("edge name not preserved: %q", sub.EdgeName(1))
	}
}

func TestFilterEdgesKeepAll(t *testing.T) {
	h, err := FromEdges(3, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sub, origOf := h.FilterEdges(func(int) bool { return true })
	if sub.NumEdges() != h.NumEdges() || len(origOf) != h.NumEdges() {
		t.Errorf("keep-all filter changed edge count")
	}
}

func TestString(t *testing.T) {
	h, err := FromEdges(3, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := "Hypergraph{vertices: 3, edges: 1, pins: 3}"
	if got := h.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// randomPinSets generates a random valid edge list for property tests.
func randomPinSets(rng *rand.Rand, n, m, maxSize int) [][]int {
	edges := make([][]int, m)
	for i := range edges {
		size := 1 + rng.Intn(maxSize)
		pins := make([]int, size)
		for j := range pins {
			pins[j] = rng.Intn(n)
		}
		edges[i] = pins
	}
	return edges
}

// TestPropertyIncidenceConsistency checks that the two CSR directions
// agree: v is in EdgePins(e) iff e is in VertexEdges(v).
func TestPropertyIncidenceConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(60)
		h, err := FromEdges(n, randomPinSets(rng, n, m, 6))
		if err != nil {
			return false
		}
		// Forward: each pin appears in its vertex's incidence list.
		for e := 0; e < h.NumEdges(); e++ {
			for _, v := range h.EdgePins(e) {
				found := false
				for _, ie := range h.VertexEdges(v) {
					if ie == e {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// Backward: each incident edge contains the vertex.
		for v := 0; v < h.NumVertices(); v++ {
			for _, e := range h.VertexEdges(v) {
				if !h.EdgeContains(e, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPinConservation checks sum of edge sizes == sum of vertex
// degrees == NumPins.
func TestPropertyPinConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := rng.Intn(80)
		h, err := FromEdges(n, randomPinSets(rng, n, m, 5))
		if err != nil {
			return false
		}
		sumSizes, sumDegs := 0, 0
		for e := 0; e < h.NumEdges(); e++ {
			sumSizes += h.EdgeSize(e)
		}
		for v := 0; v < h.NumVertices(); v++ {
			sumDegs += h.VertexDegree(v)
		}
		return sumSizes == h.NumPins() && sumDegs == h.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPinsSortedUnique checks the normalization invariant.
func TestPropertyPinsSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := rng.Intn(50)
		h, err := FromEdges(n, randomPinSets(rng, n, m, 8))
		if err != nil {
			return false
		}
		for e := 0; e < h.NumEdges(); e++ {
			p := h.EdgePins(e)
			if !sort.IntsAreSorted(p) {
				return false
			}
			for i := 1; i < len(p); i++ {
				if p[i] == p[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid input")
		}
	}()
	b := NewBuilder(1)
	b.AddEdge(5)
	b.MustBuild()
}

// TestBuilderFlatStorage pins the Builder's contract over its one flat
// pin slice: per-edge sorting and merging in place, the first error in
// edge order with the same text, and a Builder that stays usable (and
// unaliased) after Build.
func TestBuilderFlatStorage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		edges   [][]int
		want    [][]int // pins per edge after Build
		wantErr string
	}{
		{name: "merged duplicates", n: 4,
			edges: [][]int{{2, 0, 2, 1}, {1, 1}, {3, 0, 3}, {0}},
			want:  [][]int{{0, 1, 2}, {1}, {0, 3}, {0}}},
		{name: "empty edge", n: 2,
			edges:   [][]int{{0, 1}, {}, {0, 5}},
			wantErr: "hypergraph: build: edge 1 has no pins"},
		{name: "out-of-range pin", n: 4,
			edges:   [][]int{{0, 1}, {3, 1, 5, 3, 9}, {}},
			wantErr: "hypergraph: build: edge 1 pin 5 out of range [0,4)"},
		{name: "negative pin", n: 4,
			edges:   [][]int{{2, -1, -3}},
			wantErr: "hypergraph: build: edge 0 pin -3 out of range [0,4)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n)
			for _, e := range tc.edges {
				b.AddEdge(e...)
			}
			h, err := b.Build()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Build err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for e, want := range tc.want {
				if got := h.EdgePins(e); !reflect.DeepEqual(got, want) {
					t.Errorf("EdgePins(%d) = %v, want %v", e, got, want)
				}
			}
			if h.HasNames() {
				t.Error("HasNames = true with no name set")
			}
		})
	}

	t.Run("Build twice, then AddEdge after Build", func(t *testing.T) {
		b := NewBuilder(3)
		b.AddEdge(2, 0)
		b.SetEdgeName(0, "first")
		h1 := b.MustBuild()
		h2 := b.MustBuild()
		if !reflect.DeepEqual(h1, h2) {
			t.Fatalf("second Build differs: %+v vs %+v", h1, h2)
		}
		if &h1.EdgePins(0)[0] == &h2.EdgePins(0)[0] {
			t.Fatal("two Builds share pin storage")
		}
		b.AddEdge(1, 2, 1)
		b.SetVertexName(1, "mid")
		h3 := b.MustBuild()
		if h1.NumEdges() != 1 || h1.NumPins() != 2 || h1.VertexName(1) != "v1" {
			t.Errorf("AddEdge after Build changed the built hypergraph: %v, vertex 1 %q", h1, h1.VertexName(1))
		}
		if h3.NumEdges() != 2 || !reflect.DeepEqual(h3.EdgePins(1), []int{1, 2}) {
			t.Errorf("rebuilt hypergraph: %v, edge 1 pins %v", h3, h3.EdgePins(1))
		}
		if h3.EdgeName(0) != "first" || h3.EdgeName(1) != "e1" || h3.VertexName(1) != "mid" {
			t.Errorf("rebuilt names: %q %q %q", h3.EdgeName(0), h3.EdgeName(1), h3.VertexName(1))
		}
	})
}

// TestFromCSRMatchesBuild: adopting a built hypergraph's own CSR gives
// back the same hypergraph, incidence and total weight included.
func TestFromCSRMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for e := rng.Intn(40); e > 0; e-- {
			pins := make([]int, 1+rng.Intn(6))
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			b.SetEdgeWeight(b.AddEdge(pins...), int64(rng.Intn(4)))
		}
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, int64(rng.Intn(5)))
		}
		want := b.MustBuild()
		got, err := FromCSR(n, slices.Clone(want.edgeStart), slices.Clone(want.pins),
			slices.Clone(want.vertexWeight), slices.Clone(want.edgeWeight))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: adopted %v differs from built %v", trial, got, want)
		}
	}
}

func TestFromCSRErrors(t *testing.T) {
	ones := func(k int) []int64 {
		w := make([]int64, k)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for _, tc := range []struct {
		name   string
		starts []int
		pins   []int
		vw, ew []int64
	}{
		{"no starts", nil, nil, ones(3), nil},
		{"starts not at 0", []int{1, 2}, []int{0, 1}, ones(3), ones(1)},
		{"starts short of the pins", []int{0, 1}, []int{0, 1}, ones(3), ones(1)},
		{"vertex weights short", []int{0, 2}, []int{0, 1}, ones(2), ones(1)},
		{"net weights short", []int{0, 2}, []int{0, 1}, ones(3), nil},
		{"empty net", []int{0, 2, 2}, []int{0, 1}, ones(3), ones(2)},
		{"unsorted pins", []int{0, 2}, []int{1, 0}, ones(3), ones(1)},
		{"duplicate pins", []int{0, 2}, []int{1, 1}, ones(3), ones(1)},
		{"pin out of range", []int{0, 2}, []int{0, 3}, ones(3), ones(1)},
		{"negative pin", []int{0, 2}, []int{-1, 0}, ones(3), ones(1)},
		{"negative vertex weight", []int{0, 2}, []int{0, 1}, []int64{1, -1, 1}, ones(1)},
		{"negative net weight", []int{0, 2}, []int{0, 1}, ones(3), []int64{-2}},
	} {
		if _, err := FromCSR(3, tc.starts, tc.pins, tc.vw, tc.ew); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	h, err := FromCSR(3, []int{0}, nil, ones(3), nil)
	if err != nil || h.NumEdges() != 0 || h.TotalVertexWeight() != 3 {
		t.Errorf("edgeless: %v, %v", h, err)
	}
}

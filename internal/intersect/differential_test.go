package intersect

// Differential suite for the production builders against
// BuildReference (the original clique-pair builder, kept as the
// oracle). The CSR builder must return a bit-identical Result — same
// CSR start/adj arrays, same NetOf/GVertexOf/Excluded down to nil-ness.
// The bitset builder holds G in the other storage form, so it is
// compared by content: the net maps, the vertex and edge counts and
// every Neighbors row. Both builders run on every instance family of
// the verification suite and across the threshold range, whichever
// form Build would pick, plus a fuzz target asserting the graph
// invariants directly.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/verify"
)

// diffThresholds spans the interesting filter regimes: off, aggressive
// (most nets excluded), and the paper's recommended k = 10.
var diffThresholds = []int{0, 2, 3, 5, 10}

// serialCSR and serialBitset run one builder directly, bypassing
// Build's choice of form.
func serialCSR(h *hypergraph.Hypergraph, opts Options) *Result {
	res := newResult(h, opts)
	buildCSR(h, res)
	return res
}

func serialBitset(h *hypergraph.Hypergraph, opts Options) *Result {
	res := newResult(h, opts)
	buildBitset(h, res)
	return res
}

// sameContent describes the first difference between two Results by
// content — net maps, sizes and every Neighbors row, whatever storage
// form either G is held in — or returns "" when there is none.
func sameContent(got, want *Result) string {
	switch {
	case !slices.Equal(got.NetOf, want.NetOf):
		return fmt.Sprintf("NetOf %v, want %v", got.NetOf, want.NetOf)
	case !slices.Equal(got.GVertexOf, want.GVertexOf):
		return fmt.Sprintf("GVertexOf %v, want %v", got.GVertexOf, want.GVertexOf)
	case !slices.Equal(got.Excluded, want.Excluded):
		return fmt.Sprintf("Excluded %v, want %v", got.Excluded, want.Excluded)
	case got.G.NumVertices() != want.G.NumVertices() || got.G.NumEdges() != want.G.NumEdges():
		return fmt.Sprintf("G %v, want %v", got.G, want.G)
	}
	for v := 0; v < want.G.NumVertices(); v++ {
		if !slices.Equal(got.G.Neighbors(v), want.G.Neighbors(v)) {
			return fmt.Sprintf("row %d %v, want %v", v, got.G.Neighbors(v), want.G.Neighbors(v))
		}
	}
	return ""
}

// checkIdentical asserts both serial builders and Build agree with
// BuildReference on h under every threshold — the CSR builder
// bit-for-bit, the bitset builder and Build by content — and that each
// unchecked graph satisfies the graph invariants.
func checkIdentical(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	for _, thr := range diffThresholds {
		opts := Options{Threshold: thr}
		want := BuildReference(h, opts)
		csr := serialCSR(h, opts)
		if !reflect.DeepEqual(csr, want) {
			t.Errorf("%s thr=%d: CSR build differs from BuildReference\n got: NetOf=%v Excluded=%v G=%v\nwant: NetOf=%v Excluded=%v G=%v",
				name, thr, csr.NetOf, csr.Excluded, csr.G, want.NetOf, want.Excluded, want.G)
		}
		for form, got := range map[string]*Result{"csr": csr, "bitset": serialBitset(h, opts), "Build": Build(h, opts)} {
			if err := got.G.ValidateCSR(); err != nil {
				t.Errorf("%s thr=%d: %s invariant: %v", name, thr, form, err)
			}
			if diff := sameContent(got, want); diff != "" {
				t.Errorf("%s thr=%d: %s build differs from BuildReference: %s", name, thr, form, diff)
			}
		}
	}
}

// TestBuildDifferentialCurated covers the curated small-instance family
// (paths, cycles, stars, cliques, bridges, buses, pinned random and
// planted generator outputs).
func TestBuildDifferentialCurated(t *testing.T) {
	for _, inst := range verify.SmallInstances() {
		checkIdentical(t, inst.Name, inst.H)
	}
}

// TestBuildDifferentialExhaustive covers every labeled graph on four
// vertices — all 63 nonempty 2-uniform hypergraphs.
func TestBuildDifferentialExhaustive(t *testing.T) {
	for _, inst := range verify.ExhaustiveUniform(4, 2) {
		checkIdentical(t, inst.Name, inst.H)
	}
}

// TestBuildDifferentialPlanted covers the pinned planted-cut family.
func TestBuildDifferentialPlanted(t *testing.T) {
	for _, inst := range verify.PlantedInstances() {
		checkIdentical(t, inst.Name, inst.H)
	}
}

// TestBuildDifferentialGenerated stresses larger random and profile
// instances, including the dense unbounded-degree regime where the old
// builder's pair buffer is quadratic — exactly where a dedup bug in the
// stamp construction would show.
func TestBuildDifferentialGenerated(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  gen.RandomConfig
		n    int
		seed int64
	}{
		{"sparse-200", gen.RandomConfig{NumEdges: 300, MinEdgeSize: 2, MaxEdgeSize: 4}, 200, 1},
		{"dense-80", gen.RandomConfig{NumEdges: 400, MinEdgeSize: 2, MaxEdgeSize: 8}, 80, 2},
		{"hub-60", gen.RandomConfig{NumEdges: 240, MinEdgeSize: 2, MaxEdgeSize: 30}, 60, 3},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		h, err := gen.Random(tc.n, tc.cfg, rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkIdentical(t, tc.name, h)
	}
	for _, name := range []gen.Table2Name{gen.Bd1, gen.Diff1} {
		h, err := gen.Table2Instance(name, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkIdentical(t, string(name), h)
	}
}

// fuzzHypergraphAndThreshold decodes data into a small hypergraph and a
// threshold, mirroring core's fuzz decoder: byte 0 picks n ∈ [2,12],
// byte 1 a threshold ∈ [0,5], then each edge is a size byte (2–4 pins)
// followed by that many pin bytes reduced mod n.
func fuzzHypergraphAndThreshold(data []byte) (*hypergraph.Hypergraph, int) {
	n := 2
	if len(data) > 0 {
		n += int(data[0] % 11)
	}
	thr := 0
	if len(data) > 1 {
		thr = int(data[1] % 6)
	}
	b := hypergraph.NewBuilder(n)
	i := 2
	for i < len(data) && b.NumEdges() < 64 {
		size := 2 + int(data[i]%3)
		i++
		seen := map[int]bool{}
		pins := make([]int, 0, size)
		for j := 0; j < size && i < len(data); j++ {
			p := int(data[i]) % n
			i++
			if !seen[p] {
				seen[p] = true
				pins = append(pins, p)
			}
		}
		if len(pins) >= 2 {
			b.AddEdge(pins...)
		}
	}
	if b.NumEdges() == 0 {
		b.AddEdge(0, 1)
	}
	return b.MustBuild(), thr
}

// FuzzIntersectBuild fuzzes both builders and Build's choice of form
// against the graph invariant oracle (no self-loops, symmetric; CSR
// rows sorted strictly ascending, bitset rows without bits past n) and
// differentially against BuildReference.
func FuzzIntersectBuild(f *testing.F) {
	f.Add([]byte{4, 0, 2, 0, 1, 2, 1, 2, 2, 2, 3})
	f.Add([]byte{10, 3, 3, 0, 1, 2, 3, 4, 5, 6, 2, 7, 8, 2, 8, 9})
	f.Add([]byte{0, 2})
	f.Add([]byte("arbitrary text also decodes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, thr := fuzzHypergraphAndThreshold(data)
		opts := Options{Threshold: thr}
		want := BuildReference(h, opts)
		for form, got := range map[string]*Result{
			"csr":    serialCSR(h, opts),
			"bitset": serialBitset(h, opts),
			"Build":  Build(h, opts),
		} {
			if err := got.G.ValidateCSR(); err != nil {
				t.Fatalf("%s invariant on %v thr=%d: %v", form, h, thr, err)
			}
			if diff := sameContent(got, want); diff != "" {
				t.Fatalf("%s build differs from BuildReference on %v thr=%d: %s", form, h, thr, diff)
			}
		}
	})
}

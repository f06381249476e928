package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fasthgp/internal/engine"
	"fasthgp/internal/gen"
	"fasthgp/internal/graph"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/partition"
)

// boundaryGraphReference builds G′ the obvious way: flag every G-vertex
// with a neighbour across the cut, number the flagged ones in G order,
// and add every cross edge through a graph.Builder.
func boundaryGraphReference(ig *intersect.Result, side []partition.Side) (nets []int, sideOf []partition.Side, g *graph.Graph) {
	n := ig.G.NumVertices()
	index := make([]int, n)
	for i := 0; i < n; i++ {
		index[i] = -1
		for _, j := range ig.G.Neighbors(i) {
			if side[j] != side[i] {
				index[i] = len(nets)
				nets = append(nets, ig.NetOf[i])
				sideOf = append(sideOf, side[i])
				break
			}
		}
	}
	b := graph.NewBuilder(len(nets))
	for i := 0; i < n; i++ {
		for _, j := range ig.G.Neighbors(i) {
			if j > i && side[j] != side[i] {
				b.AddEdge(index[i], index[j])
			}
		}
	}
	return nets, sideOf, b.MustBuild()
}

// TestBoundaryGraphMatchesReference checks the one-pass boundary
// extraction against the reference on random instances, under both
// frontier policies, with one scratch arena reused across every cut.
func TestBoundaryGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(60)
		b := hypergraph.NewBuilder(n)
		for e := n/2 + rng.Intn(2*n); e > 0; e-- {
			pins := make([]int, 2+rng.Intn(4))
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		ig := intersect.Build(h, intersect.Options{})
		nG := ig.G.NumVertices()
		if nG == 0 {
			continue
		}
		u, v := rng.Intn(nG), rng.Intn(nG)
		pb := partialFromCut(h, ig, u, v, trial%2 == 1, true, scratch)
		nets, sideOf, want := boundaryGraphReference(ig, pb.NetSide)
		bg := pb.Boundary
		if err := bg.G.ValidateCSR(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(bg.Nets, nets) || !slices.Equal(bg.SideOf, sideOf) {
			t.Fatalf("trial %d: boundary nets %v sides %v, reference %v %v", trial, bg.Nets, bg.SideOf, nets, sideOf)
		}
		if bg.G.NumVertices() != want.NumVertices() {
			t.Fatalf("trial %d: G′ has %d vertices, reference %d", trial, bg.G.NumVertices(), want.NumVertices())
		}
		for k := 0; k < want.NumVertices(); k++ {
			if !slices.Equal(bg.G.Neighbors(k), want.Neighbors(k)) {
				t.Fatalf("trial %d: G′ row %d = %v, reference %v", trial, k, bg.G.Neighbors(k), want.Neighbors(k))
			}
		}
		flagged := 0
		for _, f := range pb.IsBoundary {
			if f {
				flagged++
			}
		}
		if flagged != len(nets) {
			t.Fatalf("trial %d: %d nets flagged as boundary, reference %d", trial, flagged, len(nets))
		}
		scratch.Release()
	}
}

// bitsetForm returns g's edges held as bitset rows.
func bitsetForm(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	w := graph.RowWords(n)
	rows := make([]uint64, n*w)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			rows[v*w+u>>6] |= 1 << (u & 63)
		}
	}
	return graph.UncheckedBitset(n, rows)
}

// sameBoundary reports the first way two boundary graphs differ, or "".
func sameBoundary(a, b *BoundaryGraph) string {
	switch {
	case !slices.Equal(a.Nets, b.Nets):
		return "Nets"
	case !slices.Equal(a.SideOf, b.SideOf):
		return "SideOf"
	case a.G.NumVertices() != b.G.NumVertices():
		return "NumVertices"
	case a.G.NumEdges() != b.G.NumEdges():
		return "NumEdges"
	case a.G.MaxDegree() != b.G.MaxDegree():
		return "MaxDegree"
	}
	for k := 0; k < a.G.NumVertices(); k++ {
		if !slices.Equal(a.G.Neighbors(k), b.G.Neighbors(k)) {
			return fmt.Sprintf("Neighbors(%d)", k)
		}
	}
	return ""
}

// boundaryCut returns a graph G and a cut of it whose boundary is
// exactly the vertices with gap unset and whose G′ has exactly edges
// edges. Same-side edges, which G′ drops, are sprinkled over every
// vertex; a gap vertex has no other kind.
func boundaryCut(rng *rand.Rand, gap []bool, edges int) (*graph.Graph, []partition.Side) {
	n := len(gap)
	side := make([]partition.Side, n)
	var bnd [2][]int
	for i := range side {
		side[i] = partition.Side(rng.Intn(2))
		if !gap[i] {
			if len(bnd[0]) == 0 {
				side[i] = partition.Left
			} else if len(bnd[1]) == 0 {
				side[i] = partition.Right
			}
			bnd[side[i]] = append(bnd[side[i]], i)
		}
	}
	adj := make([]bool, n*n)
	b := graph.NewBuilder(n)
	add := func(u, v int) bool {
		if u == v || adj[u*n+v] {
			return false
		}
		adj[u*n+v], adj[v*n+u] = true, true
		b.AddEdge(u, v)
		return true
	}
	cross := 0
	for s := 0; s < 2; s++ {
		for _, u := range bnd[s] {
			if !slices.ContainsFunc(bnd[1-s], func(v int) bool { return adj[u*n+v] }) {
				if add(u, bnd[1-s][rng.Intn(len(bnd[1-s]))]) {
					cross++
				}
			}
		}
	}
	for cross < edges {
		if add(bnd[0][rng.Intn(len(bnd[0]))], bnd[1][rng.Intn(len(bnd[1]))]) {
			cross++
		}
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if side[u] == side[v] {
			add(u, v)
		}
	}
	return b.MustBuild(), side
}

// TestBoundaryFormsAgree builds G′ of one cut from G held as bitset
// rows and from G held as CSR, and requires the same G′ in content.
// The cuts sit just above and just below denseBoundary's factor 4, so
// the bitset G sometimes emits rows and sometimes CSR lists; boundary
// sizes of 0, 1 and 63 mod 64 make the last G′ word full, nearly empty
// and one short. The gap layouts steer the emission: "none" leaves
// every G word on the boundary (the shift path, word-aligned), "lead"
// takes 1–63 vertices of word 0 off it (the shift path, spilling into
// a second G′ word), and "scattered" takes a sixth of the vertices off
// at random (the bit-by-bit path).
func TestBoundaryFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for _, nb := range []int{63, 64, 65, 127, 128, 129, 191, 192, 193} {
		for _, layout := range []string{"none", "lead", "scattered"} {
			for _, dense := range []bool{false, true} {
				name := fmt.Sprintf("n′=%d/%s/dense=%v", nb, layout, dense)
				var gap []bool
				switch layout {
				case "none":
					gap = make([]bool, nb)
				case "lead":
					k := 1 + rng.Intn(63)
					gap = make([]bool, nb+k)
					for _, i := range rng.Perm(64)[:k] {
						gap[i] = true
					}
				case "scattered":
					k := nb / 6
					gap = make([]bool, nb+k)
					for _, i := range rng.Perm(nb + k)[:k] {
						gap[i] = true
					}
				}
				edges := 2 * nb * graph.RowWords(nb)
				if !dense {
					edges--
				}
				g, side := boundaryCut(rng, gap, edges)
				n := g.NumVertices()
				netOf := rng.Perm(3 * n)[:n]
				csr := &intersect.Result{G: g, NetOf: netOf}
				rows := &intersect.Result{G: bitsetForm(g), NetOf: netOf}
				csrFlags, rowFlags := make([]bool, n), make([]bool, n)
				want := buildBoundaryGraph(csr, side, csrFlags, true, nil)
				got := buildBoundaryGraph(rows, side, rowFlags, true, scratch)
				if want.G.Bitset() || got.G.Bitset() != dense {
					t.Fatalf("%s: G′ forms csr=%v rows=%v, want false %v", name, want.G.Bitset(), got.G.Bitset(), dense)
				}
				if len(want.Nets) != nb || want.G.NumEdges() != edges {
					t.Fatalf("%s: reference G′ has %d vertices, %d edges; built for %d, %d", name, len(want.Nets), want.G.NumEdges(), nb, edges)
				}
				if err := got.G.ValidateCSR(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if diff := sameBoundary(got, want); diff != "" {
					t.Fatalf("%s: %s differs between the G forms", name, diff)
				}
				if !slices.Equal(csrFlags, rowFlags) {
					t.Fatalf("%s: boundary flags differ", name)
				}
				// Without rowsOK (the exact completion) G′ is CSR lists.
				if lists := buildBoundaryGraph(rows, side, make([]bool, n), false, scratch); lists.G.Bitset() || sameBoundary(lists, want) != "" {
					t.Fatalf("%s: G′ without rowsOK is not the CSR G′", name)
				}
				scratch.Release()
			}
		}
	}
}

// randomCompletionCase returns a bipartite G′ on n vertices, each Left
// with probability left and joined to each vertex across with
// probability p, a tenth of them isolated; and a hypergraph and
// partial bipartition around it for the weighted rule: boundary net k
// is net k, and n/2 non-boundary nets commit modules up front.
func randomCompletionCase(rng *rand.Rand, n int, p, left float64) (*hypergraph.Hypergraph, *Partial) {
	bg := &BoundaryGraph{Nets: make([]int, n), SideOf: make([]partition.Side, n)}
	for k := range bg.SideOf {
		bg.Nets[k] = k
		if rng.Float64() >= left {
			bg.SideOf[k] = partition.Right
		}
	}
	isolated := make([]bool, n)
	for k := range isolated {
		isolated[k] = rng.Intn(10) == 0
	}
	gb := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bg.SideOf[u] != bg.SideOf[v] && !isolated[u] && !isolated[v] && rng.Float64() < p {
				gb.AddEdge(u, v)
			}
		}
	}
	bg.G = gb.MustBuild()

	modules := max(n, 2)
	hb := hypergraph.NewBuilder(modules)
	for m := 0; m < modules; m++ {
		hb.SetVertexWeight(m, 1+rng.Int63n(5))
	}
	nets := n + n/2
	pb := &Partial{Boundary: bg, IG: &intersect.Result{NetOf: make([]int, nets)},
		NetSide: make([]partition.Side, nets), IsBoundary: make([]bool, nets)}
	for e := 0; e < nets; e++ {
		pins := rng.Perm(modules)[:2+rng.Intn(min(3, modules-1))]
		hb.AddEdge(pins...)
		pb.IG.NetOf[e] = e
		pb.IsBoundary[e] = e < n
		if e < n {
			pb.NetSide[e] = bg.SideOf[e]
		} else {
			pb.NetSide[e] = partition.Side(rng.Intn(2))
		}
	}
	return hb.MustBuild(), pb
}

// checkCompletionForms runs every completion rule on pb's G′ as given
// (CSR) and re-held as bitset rows, with and without a scratch arena,
// and fails on any winner that differs.
func checkCompletionForms(t *testing.T, name string, h *hypergraph.Hypergraph, pb *Partial, scratch *engine.Scratch) {
	t.Helper()
	rows := *pb
	rows.Boundary = &BoundaryGraph{G: bitsetForm(pb.Boundary.G), Nets: pb.Boundary.Nets, SideOf: pb.Boundary.SideOf}
	for _, rule := range []struct {
		name string
		run  func(pb *Partial, s *engine.Scratch) []bool
	}{
		{"greedy", func(pb *Partial, s *engine.Scratch) []bool { w, _ := completeCut(nil, pb, s); return w }},
		{"exact", func(pb *Partial, _ *engine.Scratch) []bool { return CompleteCutExact(pb.Boundary) }},
		{"weighted", func(pb *Partial, s *engine.Scratch) []bool { w, _ := completeCut(h, pb, s); return w }},
	} {
		want := slices.Clone(rule.run(pb, nil))
		for _, s := range []*engine.Scratch{nil, scratch} {
			got := rule.run(&rows, s)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s winners differ between the G′ forms (scratch %v)", name, rule.name, s != nil)
			}
			if !WinnersIndependent(rows.Boundary, got) {
				t.Fatalf("%s: %s winners not independent", name, rule.name)
			}
			if s != nil {
				s.Release()
			}
		}
	}
	if OptimalLoserCount(rows.Boundary) != OptimalLoserCount(pb.Boundary) {
		t.Fatalf("%s: OptimalLoserCount differs between the G′ forms", name)
	}
}

// TestCompletionForms holds greedy, exact and weighted completion to
// the same winners on a G′ held as CSR and as bitset rows, over random
// bipartite G′ of every size class around the word boundaries, sparse
// to nearly complete, with isolated vertices and with one side empty.
func TestCompletionForms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for _, n := range []int{1, 2, 63, 64, 65, 200, 700} {
		for _, p := range []float64{0.01, 0.05, 0.2, 0.5, 0.9} {
			for _, left := range []float64{0, 0.3, 0.5, 1} {
				h, pb := randomCompletionCase(rng, n, p, left)
				checkCompletionForms(t, fmt.Sprintf("n′=%d p=%v left=%v", n, p, left), h, pb, scratch)
			}
		}
	}
}

// TestCompletionSteadyStateAllocs pins the allocation contract of the
// CSR completion: with a warmed scratch arena the greedy rule allocates
// nothing, and the weighted rule only the partial bipartition
// BaseAssignment builds (the Bipartition and its side array). IC2's G′
// is held as CSR lists.
func TestCompletionSteadyStateAllocs(t *testing.T) {
	h, err := gen.Table2Instance(gen.IC2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ig := intersect.Build(h, intersect.Options{})
	u, v, _ := ig.G.LongestBFSPath(rand.New(rand.NewSource(1)))
	pb := PartialFromCut(h, ig, u, v)
	if pb.Boundary.G.Bitset() || pb.Boundary.G.NumEdges() == 0 {
		t.Fatalf("IC2's G′ (%v) is not a non-empty CSR G′", pb.Boundary.G)
	}
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for _, rule := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want float64
	}{{"greedy", nil, 0}, {"weighted", h, 2}} {
		run := func() {
			completeCut(rule.h, pb, scratch)
			scratch.Release()
		}
		run()
		if a := testing.AllocsPerRun(20, run); a > rule.want {
			t.Errorf("%s completion on a CSR G′: %.1f allocs per call with a warmed arena, want at most %v", rule.name, a, rule.want)
		}
	}
}

// TestSolvePairAllocs pins the allocations of one start's solve with a
// warmed arena, balanced BFS and the seed-1 longest path. The weighted
// completion hands solvePair the module assignment it weighed the sides
// with, so a weighted solve builds that assignment once, like a greedy
// one, and allocates no more than it.
func TestSolvePairAllocs(t *testing.T) {
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for _, tc := range []struct {
		name gen.Table2Name
		want float64
	}{{gen.IC2, 19}, {gen.Bd1, 15}} {
		h, err := gen.Table2Instance(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ig := intersect.Build(h, intersect.Options{})
		u, v, depth := ig.G.LongestBFSPath(rand.New(rand.NewSource(1)))
		for _, c := range []Completion{CompletionGreedy, CompletionWeighted} {
			opts := Options{Completion: c, BalancedBFS: true}
			run := func() {
				if _, err := solvePair(h, ig, u, v, depth, opts, scratch); err != nil {
					t.Fatal(err)
				}
				scratch.Release()
			}
			run()
			if a := testing.AllocsPerRun(20, run); a != tc.want {
				t.Errorf("%s, completion %v: %.1f allocs per solve with a warmed arena, want %v", tc.name, c, a, tc.want)
			}
		}
	}
}

// FuzzBoundaryForms decodes a graph G and a cut of it, builds G′ from G
// held as CSR and as bitset rows, and requires the same G′; then every
// completion rule must pick the same winners on G′ in both forms.
// Byte 0 picks n ∈ [2, 201]; the remaining bytes, read cyclically as
// bits, give each vertex its side and each vertex pair its edge, so
// random bytes make dense duals and bitset-row G′.
func FuzzBoundaryForms(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{64, 0xa5, 0x5a, 0xff})
	f.Add([]byte{127, 0x0f, 0xf0, 0x33, 0xcc, 0x01})
	f.Add([]byte{199, 0xff, 0xfe, 0xfd, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 2
		if len(data) > 0 {
			n += int(data[0]) % 200
			data = data[1:]
		}
		bit := func(i int) bool {
			return len(data) > 0 && data[(i/8)%len(data)]>>(i%8)&1 == 1
		}
		side := make([]partition.Side, n)
		for i := range side {
			if bit(i) {
				side[i] = partition.Right
			}
		}
		b := graph.NewBuilder(n)
		hb := hypergraph.NewBuilder(n)
		pair := n
		for u := 0; u < n; u++ {
			hb.AddEdge(u, (u+1)%n)
			hb.SetVertexWeight(u, int64(1+u%3))
			for v := u + 1; v < n; v++ {
				if bit(pair) {
					b.AddEdge(u, v)
				}
				pair++
			}
		}
		g := b.MustBuild()
		netOf := make([]int, n)
		for i := range netOf {
			netOf[i] = i
		}
		csr := &intersect.Result{G: g, NetOf: netOf}
		rows := &intersect.Result{G: bitsetForm(g), NetOf: netOf}
		csrFlags := make([]bool, n)
		want := buildBoundaryGraph(csr, side, csrFlags, true, nil)
		got := buildBoundaryGraph(rows, side, make([]bool, n), true, nil)
		if diff := sameBoundary(got, want); diff != "" {
			t.Fatalf("n=%d: G′ %s differs between the G forms", n, diff)
		}
		if err := got.G.ValidateCSR(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		pb := &Partial{IG: csr, NetSide: side, IsBoundary: csrFlags, Boundary: want}
		checkCompletionForms(t, fmt.Sprintf("n=%d", n), hb.MustBuild(), pb, nil)
	})
}

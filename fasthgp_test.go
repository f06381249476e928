package fasthgp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	b := NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(3, 4) // bridge
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(h, Options{Starts: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutSize != 1 {
		t.Errorf("CutSize = %d, want 1", res.CutSize)
	}
	if got := CutSize(h, res.Partition); got != 1 {
		t.Errorf("CutSize helper = %d", got)
	}
	if Imbalance(h, res.Partition) != 0 {
		t.Errorf("Imbalance = %d", Imbalance(h, res.Partition))
	}
	if q := QuotientCut(h, res.Partition); q != 0.25 {
		t.Errorf("QuotientCut = %g, want 0.25", q)
	}
}

func TestFacadeBaselines(t *testing.T) {
	h, err := FromEdges(10, [][]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4},
		{5, 6}, {6, 7}, {7, 8}, {8, 9}, {5, 9},
		{4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := KL(h, KLOptions{Seed: 1}); err != nil || r.CutSize < 1 {
		t.Errorf("KL: %v, cut=%v", err, r)
	}
	if r, err := FM(h, FMOptions{Seed: 1}); err != nil || r.CutSize < 1 {
		t.Errorf("FM: %v, cut=%v", err, r)
	}
	if r, err := Anneal(h, AnnealOptions{Seed: 1}); err != nil || r.CutSize < 1 {
		t.Errorf("Anneal: %v, cut=%v", err, r)
	}
	if _, cut, err := RandomBisection(h, rand.New(rand.NewSource(1))); err != nil || cut < 1 {
		t.Errorf("RandomBisection: %v, cut=%d", err, cut)
	}
}

func TestFacadeNetlistIO(t *testing.T) {
	h, err := ReadNetlist(strings.NewReader("net a m0 m1\nnet b m1 m2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 3 || h.NumEdges() != 2 {
		t.Fatalf("dims = %d,%d", h.NumVertices(), h.NumEdges())
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "net a") {
		t.Errorf("output missing net:\n%s", buf.String())
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hp, err := GenerateProfile(ProfileConfig{Modules: 60, Signals: 120, Technology: StdCell}, rng)
	if err != nil || hp.NumVertices() != 60 {
		t.Fatalf("profile: %v", err)
	}
	hr, err := GenerateRandom(40, RandomConfig{NumEdges: 60}, rng)
	if err != nil || hr.NumEdges() != 60 {
		t.Fatalf("random: %v", err)
	}
	hpl, planted, err := GeneratePlanted(40, PlantedConfig{CutSize: 2, IntraEdges: 80}, rng)
	if err != nil || len(planted) != 2 || hpl.NumVertices() != 40 {
		t.Fatalf("planted: %v", err)
	}
}

func TestFacadePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, err := GenerateProfile(ProfileConfig{Modules: 64, Signals: 128, Technology: GateArray}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceMinCut(h, PlaceOptions{Rows: 2, Cols: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if HPWL(h, pl) <= 0 {
		t.Error("HPWL should be positive on a 2x2 grid")
	}
}

func TestFacadeGranularize(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(1, 9)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Granularize(h, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gr.H.NumVertices() != 5 {
		t.Errorf("granularized vertices = %d, want 5", gr.H.NumVertices())
	}
}

func TestFacadeCompletionModes(t *testing.T) {
	h, err := FromEdges(12, [][]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11},
		{0, 6}, {5, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []Completion{CompletionGreedy, CompletionExact, CompletionWeighted} {
		res, err := Partition(h, Options{Seed: 3, Starts: 4, Completion: comp})
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		if err := res.Partition.Validate(h); err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
	}
	if _, err := Partition(h, Options{Objective: MinQuotient}); err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(h, Options{Objective: MinCut}); err != nil {
		t.Fatal(err)
	}
	if WeightedCutSize(h, mustPartition(t, h)) < 1 {
		t.Error("weighted cut should be >= 1 on connected instance")
	}
}

func TestFacadeMultilevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, err := GenerateProfile(ProfileConfig{Modules: 300, Signals: 600, Technology: StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Multilevel(h, MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(h); err != nil {
		t.Fatal(err)
	}
	if res.Levels < 1 {
		t.Error("no coarsening happened on a 300-module netlist")
	}
}

func TestFacadeKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h, err := GenerateProfile(ProfileConfig{Modules: 160, Signals: 320, Technology: GateArray}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KWay(h, KWayOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || res.CutNets <= 0 || res.Connectivity < int64(res.CutNets) {
		t.Errorf("KWay result: %+v", res)
	}
}

func TestFacadeEnforceConstraint(t *testing.T) {
	h, err := FromEdges(10, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	// ε = 0.1 caps each side at ⌊1.1·5⌋ = 5 of the 10 modules.
	p := New10Lopsided()
	if err := EnforceConstraint(h, p, Constraint{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if Imbalance(h, p) != 0 {
		t.Errorf("imbalance %d, want 0", Imbalance(h, p))
	}
}

// New10Lopsided builds a 9-left / 1-right partition over 10 vertices.
func New10Lopsided() *Bipartition {
	p := NewBipartition(10)
	p.Assign(9, Right)
	for v := 0; v < 9; v++ {
		p.Assign(v, Left)
	}
	return p
}

func TestFacadeHMetis(t *testing.T) {
	h, err := ReadHMetis(strings.NewReader("2 4\n1 2\n3 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.NumVertices() != 4 {
		t.Fatalf("dims = %d,%d", h.NumEdges(), h.NumVertices())
	}
	var buf bytes.Buffer
	if err := WriteHMetis(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "2 4") {
		t.Errorf("header = %q", buf.String())
	}
}

func TestFacadeCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h, err := GenerateProfile(ProfileConfig{Modules: 120, Signals: 240, Technology: StdCell}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(h, ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters >= h.NumVertices() || res.NumClusters < 2 {
		t.Errorf("NumClusters = %d", res.NumClusters)
	}
	if res.Absorption <= 0 || res.Absorption > 1 {
		t.Errorf("Absorption = %g", res.Absorption)
	}
	out, err := Partition(res.H, Options{Seed: 1, Starts: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Project(out.Partition)
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSpectral(t *testing.T) {
	h, err := FromEdges(8, [][]int{
		{0, 1}, {1, 2}, {2, 3}, {0, 3},
		{4, 5}, {5, 6}, {6, 7}, {4, 7},
		{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Spectral(h, SpectralOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutSize != 1 {
		t.Errorf("spectral cut = %d, want 1", res.CutSize)
	}
	if len(res.Fiedler) != 8 {
		t.Errorf("Fiedler length = %d", len(res.Fiedler))
	}
}

func TestFacadeFlow(t *testing.T) {
	h, err := FromEdges(6, [][]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Flow(h, FlowOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutSize != 1 {
		t.Errorf("flow cut = %d, want 1", res.CutSize)
	}
	p, value, err := MinNetCut(h, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if value != 1 || CutSize(h, p) != 1 {
		t.Errorf("MinNetCut = %d / cut %d", value, CutSize(h, p))
	}
}

func mustPartition(t *testing.T, h *Hypergraph) *Bipartition {
	t.Helper()
	res, err := Partition(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Partition
}

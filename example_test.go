package fasthgp_test

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"fasthgp"
)

// The bridge netlist: two square clusters joined by one net.
func bridgeNetlist() *fasthgp.Hypergraph {
	b := fasthgp.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(4, 7)
	b.AddEdge(3, 4)
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return h
}

func ExamplePartition() {
	h := bridgeNetlist()
	res, err := fasthgp.Partition(h, fasthgp.Options{Starts: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cut:", res.CutSize)
	fmt.Println("same side 0,3:", res.Partition.Side(0) == res.Partition.Side(3))
	fmt.Println("same side 3,4:", res.Partition.Side(3) == res.Partition.Side(4))
	// Output:
	// cut: 1
	// same side 0,3: true
	// same side 3,4: false
}

func ExamplePartition_completionModes() {
	h := bridgeNetlist()
	for _, comp := range []fasthgp.Completion{
		fasthgp.CompletionGreedy, fasthgp.CompletionExact, fasthgp.CompletionWeighted,
	} {
		res, err := fasthgp.Partition(h, fasthgp.Options{Starts: 5, Seed: 1, Completion: comp})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v: cut %d\n", comp, res.CutSize)
	}
	// Output:
	// greedy: cut 1
	// exact: cut 1
	// weighted: cut 1
}

func ExampleReadNetlist() {
	src := `
# two nets over three modules
net clk cpu ram
net bus cpu ram io
`
	h, err := fasthgp.ReadNetlist(strings.NewReader(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(h.NumVertices(), "modules,", h.NumEdges(), "nets")
	fmt.Println("module 0 is", h.VertexName(0))
	// Output:
	// 3 modules, 2 nets
	// module 0 is cpu
}

func ExampleReadHMetis() {
	src := "2 4\n1 2\n2 3 4\n"
	h, err := fasthgp.ReadHMetis(strings.NewReader(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(h.NumEdges(), "nets over", h.NumVertices(), "vertices")
	fmt.Println("net 0 pins:", h.EdgePins(0))
	// Output:
	// 2 nets over 4 vertices
	// net 0 pins: [0 1]
}

func ExampleKWay() {
	h := bridgeNetlist()
	res, err := fasthgp.KWay(h, fasthgp.KWayOptions{K: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parts:", res.K)
	fmt.Println("connectivity >= cut nets:", res.Connectivity >= int64(res.CutNets))
	// Output:
	// parts: 4
	// connectivity >= cut nets: true
}

func ExampleMinNetCut() {
	h := bridgeNetlist()
	_, value, err := fasthgp.MinNetCut(h, 0, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("min nets separating module 0 from module 7:", value)
	// Output:
	// min nets separating module 0 from module 7: 1
}

func ExampleGenerateProfile() {
	rng := rand.New(rand.NewSource(1))
	h, err := fasthgp.GenerateProfile(fasthgp.ProfileConfig{
		Modules:    120,
		Signals:    240,
		Technology: fasthgp.StdCell,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(h.NumVertices(), h.NumEdges())
	// Output:
	// 120 240
}

func ExamplePlaceMinCut() {
	h := bridgeNetlist()
	pl, err := fasthgp.PlaceMinCut(h, fasthgp.PlaceOptions{Rows: 1, Cols: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("HPWL:", fasthgp.HPWL(h, pl))
	// Output:
	// HPWL: 1
}

func ExampleEnforceConstraint() {
	h := bridgeNetlist()
	p := fasthgp.NewBipartition(8)
	p.Assign(0, fasthgp.Right)
	for v := 1; v < 8; v++ {
		p.Assign(v, fasthgp.Left)
	}
	// ε = 0.1 caps each side at ⌊1.1·⌈8/2⌉⌋ = 4 modules.
	if err := fasthgp.EnforceConstraint(h, p, fasthgp.Constraint{Epsilon: 0.1}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("imbalance:", fasthgp.Imbalance(h, p), "cut:", fasthgp.CutSize(h, p))
	// Output:
	// imbalance: 0 cut: 1
}

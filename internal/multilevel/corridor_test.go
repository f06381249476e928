package multilevel

import (
	"math/rand"
	"slices"
	"testing"

	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// rescanCorridor is growCorridor as it was before nets were marked read:
// a net is read again for every corridor pin on it. It returns the
// corridor in admission order and the pins it read.
func rescanCorridor(h *hypergraph.Hypergraph, p *partition.Bipartition, bal partition.Constraint, perSide int64) ([]int, int64) {
	sideBudget := [2]int64{perSide, perSide}
	inCorridor := make([]bool, h.NumVertices())
	var queue []int
	var reads int64
	admit := func(v int) {
		if inCorridor[v] || bal.Fixed(v) >= 0 {
			return
		}
		s := p.Side(v)
		if w := h.VertexWeight(v); sideBudget[s] >= w {
			sideBudget[s] -= w
			inCorridor[v] = true
			queue = append(queue, v)
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		if partition.Crosses(h, p, e) {
			reads += int64(h.EdgeSize(e))
			for _, v := range h.EdgePins(e) {
				admit(v)
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range h.VertexEdges(queue[head]) {
			reads += int64(h.EdgeSize(e))
			for _, u := range h.EdgePins(e) {
				admit(u)
			}
		}
	}
	return queue, reads
}

// TestCorridorMatchesRescan: reading each net once per round admits the
// same corridor, in the same order, as re-reading a net for every
// corridor pin on it — under weights, fixed vertices and budgets from
// starved to ample — while reading at most every pin once.
func TestCorridorMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	scratch := engine.GetScratch()
	defer engine.PutScratch(scratch)
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(60)
		b := hypergraph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, int64(1+rng.Intn(5)))
		}
		for e := rng.Intn(3 * n); e >= 0; e-- {
			pins := make([]int, 1+rng.Intn(8))
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			b.AddEdge(pins...)
		}
		h := b.MustBuild()
		p := partition.New(n)
		fixed := make([]int8, n)
		for v := 0; v < n; v++ {
			p.Assign(v, partition.Side(rng.Intn(2)))
			fixed[v] = partition.FreeVertex
			if rng.Intn(6) == 0 {
				fixed[v] = int8(p.Side(v))
			}
		}
		bal := partition.Constraint{Epsilon: 0.1, FixedSide: fixed}
		perSide := rng.Int63n(h.TotalVertexWeight() + 1)
		want, _ := rescanCorridor(h, p, bal, perSide)
		var stats VCycleStats
		got, read := growCorridor(h, p, bal, perSide, scratch, &stats)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: corridor %v, re-reading nets gives %v", trial, got, want)
		}
		if stats.CorridorPinScans > int64(h.NumPins()) {
			t.Fatalf("trial %d: read %d pins of %d", trial, stats.CorridorPinScans, h.NumPins())
		}
		for _, v := range got {
			for _, e := range h.VertexEdges(v) {
				if !read[e] {
					t.Fatalf("trial %d: net %d of corridor vertex %d not marked read", trial, e, v)
				}
			}
		}
		scratch.Release()
	}
}

// TestCorridorReadsEachNetOnce is the gate on the corridor's scan:
// one net over every module plus a ring of 2-pin nets, where re-reading
// the giant net for every corridor pin on it costs corridor × n pin
// reads per round. Each round may read at most every pin once.
func TestCorridorReadsEachNetOnce(t *testing.T) {
	const n = 2000
	b := hypergraph.NewBuilder(n)
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	b.AddEdge(all...)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	h := b.MustBuild()
	res, err := Bisect(h, Options{Seed: 1, Starts: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.VCycle
	if st.FlowRounds == 0 || st.CorridorVertices == 0 {
		t.Fatalf("flow refinement never grew a corridor: %+v", st)
	}
	if limit := st.FlowRounds * int64(h.NumPins()); st.CorridorPinScans > limit {
		t.Fatalf("%d flow rounds read %d pins, over one read per pin per round (%d)", st.FlowRounds, st.CorridorPinScans, limit)
	}
	// The shape does trip a scan that re-reads nets: on the final cut,
	// one round of it reads more pins than the hypergraph has.
	total := h.TotalVertexWeight()
	perSide := int64(corridorFraction * float64((total+1)/2))
	_, reads := rescanCorridor(h, res.Partition, partition.Constraint{}, perSide)
	if reads <= int64(h.NumPins()) {
		t.Fatalf("re-reading nets read only %d pins of %d; the shape no longer exercises the gate", reads, h.NumPins())
	}
	t.Logf("%d rounds read %d pins of %d; one round re-reading nets reads %d", st.FlowRounds, st.CorridorPinScans, h.NumPins(), reads)
}

package core

// FuzzCompleteCut drives Algorithm I over arbitrary byte-encoded small
// hypergraphs, under both double-BFS frontier policies, and checks the
// paper's completion guarantees differentially: the exact König
// completion can never lose to the greedy Complete-Cut under the same
// start path, greedy stays within the boundary-size bound of exact, and
// every result must satisfy the shared invariant oracle with its
// claimed cutsize.

import (
	"testing"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/verify"
)

// fuzzHypergraph decodes data into a small hypergraph: byte 0 picks
// n ∈ [2,12], then each edge is a size byte (2–4 pins) followed by
// that many pin bytes reduced mod n. Duplicate pins within an edge are
// dropped; degenerate edges are skipped; an edgeless decode gets one
// fallback edge so Algorithm I always has work.
func fuzzHypergraph(data []byte) *hypergraph.Hypergraph {
	n := 2
	if len(data) > 0 {
		n += int(data[0] % 11)
	}
	b := hypergraph.NewBuilder(n)
	i := 1
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
	return b.MustBuild()
}

func FuzzCompleteCut(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 2, 1, 2, 2, 2, 3})
	f.Add([]byte{10, 3, 0, 1, 2, 3, 4, 5, 6, 2, 7, 8, 2, 8, 9})
	f.Add([]byte{0})
	f.Add([]byte("arbitrary text also decodes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fuzzHypergraph(data)
		for _, balanced := range []bool{false, true} {
			run := func(c Completion) *Result {
				res, err := Bipartition(h, Options{Starts: 1, Seed: 7, Completion: c, BalancedBFS: balanced})
				if err != nil {
					t.Fatalf("%v (balanced BFS %v) on %v: %v", c, balanced, h, err)
				}
				if _, err := verify.CheckCut(h, res.Partition, res.CutSize); err != nil {
					t.Fatalf("%v (balanced BFS %v) on %v: oracle: %v", c, balanced, h, err)
				}
				return res
			}
			greedy := run(CompletionGreedy)
			exact := run(CompletionExact)
			weighted := run(CompletionWeighted)

			// Same seed, Starts and frontier policy: all three rules
			// complete the identical start path over the identical
			// boundary graph, so the paper's completion theorem must hold
			// on the loser counts. (The final recomputed cutsizes are NOT
			// ordered: module packing after completion can leave a nominal
			// loser uncut, in either rule's favor — the theorem speaks
			// only about the completion.)
			if len(exact.Losers) > len(greedy.Losers) {
				t.Errorf("balanced BFS %v: exact completion chose %d losers > greedy %d on %v",
					balanced, len(exact.Losers), len(greedy.Losers), h)
			}
			// Complete-Cut is within one of optimum per connected
			// component of the boundary graph; components are bounded by
			// |B|.
			if len(greedy.Losers) > len(exact.Losers)+greedy.Stats.BoundarySize {
				t.Errorf("balanced BFS %v: greedy losers %d exceed exact %d + boundary %d on %v",
					balanced, len(greedy.Losers), len(exact.Losers), greedy.Stats.BoundarySize, h)
			}
			// Every crossing net is a loser (threshold off, no repair).
			for _, res := range []*Result{greedy, exact, weighted} {
				if !res.Stats.Repaired && res.CutSize > len(res.Losers) {
					t.Errorf("balanced BFS %v: cut %d exceeds loser count %d on %v", balanced, res.CutSize, len(res.Losers), h)
				}
			}
		}
	})
}

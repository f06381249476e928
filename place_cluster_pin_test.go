package fasthgp

import (
	"math"
	"testing"

	"fasthgp/internal/checkpoint"
)

// TestPlaceClusterPinned freezes the outputs of min-cut placement and
// connectivity clustering at their default settings on three corpus
// netlists, the clustered hypergraph included (its pins, weights and
// net order, by hash). The golden corpus covers only the bipartitioners, and the
// place and cluster package tests check relations (HPWL below the
// random average, clusters under the weight cap), so this is the test
// that notices when a refactor of either package moves a result.
func TestPlaceClusterPinned(t *testing.T) {
	insts := corpusInstances(t)
	for _, want := range []struct {
		name         string
		hpwl, hpwlTP int64
		clusters     int
		absorption   float64
		clustered    uint64 // checkpoint.HashHypergraph of the clustered hypergraph
	}{
		{"profile-stdcell-30", 61, 60, 21, 0.15462962962962962, 0x10e07dadf00df891},
		{"profile-pcb-30", 81, 93, 18, 0.24872970260901292, 0xc0f640361c4cf035},
		{"profile-hybrid-30", 95, 84, 12, 0.30654761904761907, 0x5d2cbb62ee445440},
	} {
		inst, ok := insts[want.name]
		if !ok {
			t.Fatalf("corpus netlist %s missing", want.name)
		}
		h := inst.H
		plain, err := PlaceMinCut(h, PlaceOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		tp, err := PlaceMinCut(h, PlaceOptions{Seed: 1, TerminalPropagation: true})
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if got := HPWL(h, plain); got != want.hpwl {
			t.Errorf("%s: min-cut placement HPWL %d, want %d", want.name, got, want.hpwl)
		}
		if got := HPWL(h, tp); got != want.hpwlTP {
			t.Errorf("%s: terminal-propagation placement HPWL %d, want %d", want.name, got, want.hpwlTP)
		}
		cl, err := Cluster(h, ClusterOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if cl.NumClusters != want.clusters {
			t.Errorf("%s: %d clusters, want %d", want.name, cl.NumClusters, want.clusters)
		}
		if math.Abs(cl.Absorption-want.absorption) > 1e-12 {
			t.Errorf("%s: absorption %.17g, want %.17g", want.name, cl.Absorption, want.absorption)
		}
		if got := checkpoint.HashHypergraph(cl.H); got != want.clustered {
			t.Errorf("%s: clustered hypergraph hash %#x, want %#x", want.name, got, want.clustered)
		}
	}
}

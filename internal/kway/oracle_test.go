package kway

// Oracle wiring: the K-way partitioner is validated with the K-way arm
// of the shared oracle, which recomputes the cut-net count and the
// connectivity objective from the labeling alone and holds every part
// to the default ε bound.

import (
	"testing"

	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

func TestOracleOnSmallInstances(t *testing.T) {
	for _, inst := range verify.SmallInstances() {
		for _, k := range []int{2, 3, 4} {
			if k > inst.H.NumVertices() {
				continue
			}
			res, err := Partition(inst.H, Options{K: k, Starts: 2, Seed: 5})
			if err != nil {
				t.Fatalf("%s k=%d: %v", inst.Name, k, err)
			}
			rep, err := verify.CheckKWay(inst.H, res.Part, k, partition.Constraint{Epsilon: defaultEpsilon})
			if err != nil {
				t.Errorf("%s k=%d: %v", inst.Name, k, err)
				continue
			}
			if rep.CutNets != res.CutNets || rep.Connectivity != res.Connectivity {
				t.Errorf("%s k=%d: claimed cut %d/λ %d, oracle recomputed %d/%d",
					inst.Name, k, res.CutNets, res.Connectivity, rep.CutNets, rep.Connectivity)
			}
		}
	}
}

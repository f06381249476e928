package perf

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/multilevel"
	"fasthgp/internal/partition"
)

// VCycleFamily is one pinned huge-instance scale family, measured by
// running the full multilevel V-cycle and recording its deterministic
// work counters — the scale analogue of the intersect-build families.
type VCycleFamily struct {
	// Name identifies the family in BENCH_perf.json's vcycle section.
	Name string
	// Smoke marks the reduced-size family CI runs on every PR (and
	// -short runs locally); the full 10⁵-pin family additionally runs
	// in the bench job and unabridged `go test ./...`.
	Smoke bool
	// H is the pinned instance.
	H *hypergraph.Hypergraph
	// Opts are the pinned V-cycle options (seed included).
	Opts multilevel.Options
}

// VCycleFamilies returns the pinned scale suite: power-law instances
// (hub vertices, geometric net sizes — the shape real netlists have and
// uniform generators lack), fully deterministic.
func VCycleFamilies() []VCycleFamily {
	pl := func(name string, n int, cfg gen.PowerLawConfig, seed int64) *hypergraph.Hypergraph {
		h, err := gen.PowerLaw(n, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(fmt.Sprintf("perf: building vcycle family %s: %v", name, err))
		}
		return h
	}
	return []VCycleFamily{
		// Reduced-size smoke: same shape, ~2·10⁴ pins, fast enough for
		// every-PR CI with deterministic counters only.
		// InitialStarts is pinned low: the coarsest level of a power-law
		// instance has a dense intersection graph, and the scale gate
		// cares about the V-cycle's counters, not initial-cut polish.
		{Name: "vcycle-powerlaw-smoke", Smoke: true,
			H:    pl("vcycle-powerlaw-smoke", 4000, gen.PowerLawConfig{NumEdges: 6000}, 11),
			Opts: multilevel.Options{Seed: 1, Starts: 1, InitialStarts: 2, Parallelism: 1}},
		// The scale gate: ~10⁵ pins of power-law netlist. The blessed
		// counters are the budget — hierarchy depth, corridor sizes and
		// flow augmentations may only move with an intentional re-bless.
		{Name: "vcycle-powerlaw-100k",
			H:    pl("vcycle-powerlaw-100k", 20000, gen.PowerLawConfig{NumEdges: 30000}, 12),
			Opts: multilevel.Options{Seed: 1, Starts: 1, InitialStarts: 2, Parallelism: 1}},
	}
}

// VCycleCounters are the deterministic work counters of one family's
// V-cycle run — integers and a partition hash, identical on every
// machine and run.
type VCycleCounters struct {
	// Modules, Nets and Pins describe the input hypergraph.
	Modules int `json:"modules"`
	Nets    int `json:"nets"`
	Pins    int `json:"pins"`
	// Levels and CoarsestVertices describe the contraction hierarchy.
	Levels           int `json:"levels"`
	CoarsestVertices int `json:"coarsest_vertices"`
	// CorridorVertices, FlowNodes and FlowAugmentations total the
	// flow-refinement workload over all levels and rounds.
	CorridorVertices  int64 `json:"corridor_vertices"`
	FlowNodes         int64 `json:"flow_nodes"`
	FlowAugmentations int64 `json:"flow_augmentations"`
	// FlowRounds/FlowAccepted/FlowGain summarize the acceptance rule.
	FlowRounds   int64 `json:"flow_rounds"`
	FlowAccepted int64 `json:"flow_accepted"`
	FlowGain     int64 `json:"flow_gain"`
	// RefineGain is the total uncoarsening cut reduction; FinalCut the
	// resulting cutsize.
	RefineGain int64 `json:"refine_gain"`
	FinalCut   int   `json:"final_cut"`
	// SidesFNV is the FNV-1a hash of the final partition's sides, one
	// byte per vertex, so a change that keeps every counter but moves a
	// vertex still shows.
	SidesFNV string `json:"sides_fnv"`
}

// VCycleCountersFor runs f's pinned V-cycle and extracts its counters.
func VCycleCountersFor(f VCycleFamily) (VCycleCounters, error) {
	res, err := multilevel.Bisect(f.H, f.Opts)
	if err != nil {
		return VCycleCounters{}, err
	}
	return VCycleCounters{
		Modules:           f.H.NumVertices(),
		Nets:              f.H.NumEdges(),
		Pins:              f.H.NumPins(),
		Levels:            res.Levels,
		CoarsestVertices:  res.CoarsestVertices,
		CorridorVertices:  res.VCycle.CorridorVertices,
		FlowNodes:         res.VCycle.FlowNodes,
		FlowAugmentations: res.VCycle.FlowAugmentations,
		FlowRounds:        res.VCycle.FlowRounds,
		FlowAccepted:      res.VCycle.FlowAccepted,
		FlowGain:          res.VCycle.FlowGain,
		RefineGain:        res.VCycle.RefineGain,
		FinalCut:          res.CutSize,
		SidesFNV:          sidesFNV(res.Partition),
	}, nil
}

// sidesFNV hashes p's sides with FNV-1a, one byte per vertex.
func sidesFNV(p *partition.Bipartition) string {
	fh := fnv.New64a()
	for _, s := range p.Sides() {
		fh.Write([]byte{byte(s)})
	}
	return fmt.Sprintf("%016x", fh.Sum64())
}

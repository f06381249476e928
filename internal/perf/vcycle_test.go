package perf

// TestVCycleBaseline is the scale gate: it runs the pinned power-law
// V-cycle families and compares their deterministic work counters —
// hierarchy depth, coarsest size, corridor sizes, flow augmentations,
// acceptance stats, refinement gain, final cut, a hash of the final
// sides — exactly against the vcycle section of BENCH_perf.json. The
// counters are pure functions of the pinned instances (no timing, no
// allocation), so the gate is machine-independent and runs on every
// change: under -short only the reduced smoke family runs; full runs
// add the 10⁵-pin family. Outside that exact comparison, the allocations
// of one V-cycle (allocs_per_op) may not regress past the blessed
// value plus max(2, blessed/2), the intersect families' slack.
//
// Re-bless after an intentional change with
//
//	go test ./internal/perf/ -run TestVCycleBaseline -update
//
// (run it un-short so the full family is re-blessed too).

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"fasthgp/internal/multilevel"
)

func TestVCycleBaseline(t *testing.T) {
	var entries []vcycleEntry
	for _, f := range VCycleFamilies() {
		if testing.Short() && !f.Smoke {
			t.Logf("%s: skipped under -short (smoke families only)", f.Name)
			continue
		}
		c, err := VCycleCountersFor(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if c.Pins < 10_000 {
			t.Errorf("%s: only %d pins — scale family is not at scale", f.Name, c.Pins)
		}
		if !f.Smoke && c.Pins < 100_000 {
			t.Errorf("%s: %d pins < 10⁵ — the scale gate no longer covers the target regime", f.Name, c.Pins)
		}
		if c.Levels == 0 || c.FlowRounds == 0 {
			t.Errorf("%s: degenerate V-cycle (levels=%d flow rounds=%d)", f.Name, c.Levels, c.FlowRounds)
		}
		allocs := countAllocs(1, func() {
			if _, err := multilevel.Bisect(f.H, f.Opts); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
		})
		entries = append(entries, vcycleEntry{Name: f.Name, VCycleCounters: c, AllocsPerOp: allocs})
		t.Logf("%-24s %d pins, %d levels → %d coarse, %d corridor vertices, %d augmentations, cut %d, %.0f allocs/op",
			f.Name, c.Pins, c.Levels, c.CoarsestVertices, c.CorridorVertices, c.FlowAugmentations, c.FinalCut, allocs)
	}

	if *update {
		// Read-modify-write: replace only the rows measured this run,
		// keep everything else (intersect families, and the full family
		// when re-blessing under -short).
		var file perfFile
		if prev, err := os.ReadFile(benchPath); err == nil {
			if err := json.Unmarshal(prev, &file); err != nil {
				t.Fatalf("%s: %v", benchPath, err)
			}
		}
		byName := make(map[string]int, len(file.VCycle))
		for i, e := range file.VCycle {
			byName[e.Name] = i
		}
		for _, e := range entries {
			if i, ok := byName[e.Name]; ok {
				file.VCycle[i] = e
			} else {
				file.VCycle = append(file.VCycle, e)
			}
		}
		writeJSON(t, benchPath, &file)
		t.Logf("re-blessed vcycle section of %s", benchPath)
		return
	}

	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("missing %s — run `go test ./internal/perf/ -run TestVCycleBaseline -update`: %v", benchPath, err)
	}
	var want perfFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", benchPath, err)
	}
	wantByName := make(map[string]vcycleEntry, len(want.VCycle))
	for _, e := range want.VCycle {
		wantByName[e.Name] = e
	}
	for _, e := range entries {
		w, ok := wantByName[e.Name]
		if !ok {
			t.Errorf("vcycle family %q missing from BENCH_perf.json — re-bless with -update", e.Name)
			continue
		}
		if e.VCycleCounters != w.VCycleCounters {
			t.Errorf("%s: vcycle counters changed\n got %+v\nwant %+v — the V-cycle's scale workload moved; re-bless with -update if intentional",
				e.Name, e.VCycleCounters, w.VCycleCounters)
		}
		if slack := math.Max(2, w.AllocsPerOp/2); e.AllocsPerOp > w.AllocsPerOp+slack {
			t.Errorf("%s: allocs/op regression: %.0f > blessed %.0f (+%.0f slack)",
				e.Name, e.AllocsPerOp, w.AllocsPerOp, slack)
		}
	}
}

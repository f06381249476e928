package core

// TestAlgorithmIPins freezes Algorithm I's per-start output, so a change
// to a kernel (double BFS, boundary graph, Complete-Cut) that should
// keep every output byte-identical is checked here rather than by
// diffing CLI output by hand. The golden corpus pins only the best cut
// of two option sets; this pins every start's cut, the winning start,
// the loser and boundary counts, the BFS depth, the distinct-pair
// count, both storage forms and a hash of the partition, under every
// completion rule and both frontier policies. Regenerate with
// `go test ./internal/core/ -run TestAlgorithmIPins -update` only when
// a change is meant to move a result.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/pins.json from the current code")

const pinsPath = "testdata/pins.json"

// pin is one Algorithm I call's recorded output.
type pin struct {
	Name             string `json:"name"`
	Cuts             []int  `json:"cuts"`
	BestStart        int    `json:"best_start"`
	CutSize          int    `json:"cut"`
	Losers           int    `json:"losers"`
	BoundarySize     int    `json:"boundary"`
	BFSDepth         int    `json:"depth"`
	DistinctPairs    int    `json:"pairs"`
	Disconnected     bool   `json:"disconnected"`
	BitsetDual       bool   `json:"bitset_dual"`
	BitsetBoundaries int    `json:"bitset_boundaries"`
	Sides            string `json:"sides_fnv"`
}

// pinInstance is a hypergraph with its constraint.
type pinInstance struct {
	name string
	h    *hypergraph.Hypergraph
	c    partition.Constraint
}

// pinInstances returns Bd1 (a dual held as bitset rows), IC2 and Diff3
// (duals held as CSR lists), and the golden-corpus netlists, each under
// its inline fixed directives, so seedPath's fixed-seeded BFS runs too.
// Bd1, IC2 and Diff3 run once more under ε = 0.1, so every start's
// partition also passes through rebalance's mover (IC2 moves ~10³
// vertices per repair), which the corpus's fixed-only constraints never
// reach.
func pinInstances(t *testing.T) []pinInstance {
	t.Helper()
	var insts, balanced []pinInstance
	for _, name := range []gen.Table2Name{gen.Bd1, gen.IC2, gen.Diff3} {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, pinInstance{name: string(name), h: h})
		balanced = append(balanced, pinInstance{name: string(name) + "-eps0.1", h: h, c: partition.Constraint{Epsilon: 0.1}})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.nets"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus netlists: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		h, fixed, err := netio.ReadFixed(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		insts = append(insts, pinInstance{
			name: strings.TrimSuffix(filepath.Base(path), ".nets"),
			h:    h,
			c:    partition.Constraint{FixedSide: fixed},
		})
	}
	return append(insts, balanced...)
}

// pinVariants are every completion rule under both frontier policies at
// threshold 0, plus the V-cycle's coarsest-level setting.
func pinVariants() map[string]Options {
	vs := map[string]Options{
		"weighted-balanced-t10": {Completion: CompletionWeighted, BalancedBFS: true, Threshold: 10},
	}
	for _, c := range []Completion{CompletionGreedy, CompletionWeighted, CompletionExact} {
		vs[c.String()+"-alternating"] = Options{Completion: c}
		vs[c.String()+"-balanced"] = Options{Completion: c, BalancedBFS: true}
	}
	return vs
}

// runPins computes the pins of every instance under every variant, in
// name order.
func runPins(t *testing.T) []pin {
	t.Helper()
	variants := pinVariants()
	var names []string
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	var pins []pin
	for _, inst := range pinInstances(t) {
		for _, vname := range names {
			opts := variants[vname]
			opts.Starts, opts.Seed, opts.Parallelism = 20, 1, 1
			opts.Constraint = inst.c
			res, err := Bipartition(inst.h, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.name, vname, err)
			}
			fh := fnv.New64a()
			for _, s := range res.Partition.Sides() {
				fh.Write([]byte{byte(s)})
			}
			st := res.Stats
			pins = append(pins, pin{
				Name:             inst.name + "/" + vname,
				Cuts:             st.Engine.Cuts,
				BestStart:        st.Engine.BestStart,
				CutSize:          res.CutSize,
				Losers:           len(res.Losers),
				BoundarySize:     st.BoundarySize,
				BFSDepth:         st.BFSDepth,
				DistinctPairs:    st.DistinctPairs,
				Disconnected:     st.Disconnected,
				BitsetDual:       st.BitsetDual,
				BitsetBoundaries: st.BitsetBoundaries,
				Sides:            fmt.Sprintf("%016x", fh.Sum64()),
			})
		}
	}
	return pins
}

func TestAlgorithmIPins(t *testing.T) {
	got := runPins(t)
	if *updatePins {
		lines := make([]string, len(got))
		for i, p := range got {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = "  " + string(b)
		}
		out := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
		if err := os.WriteFile(pinsPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), pinsPath)
		return
	}
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	var want []pin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", pinsPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pins, %s holds %d", len(got), pinsPath, len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("pin %d is %s, %s holds %s", i, g.Name, pinsPath, w.Name)
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got  %s\n want %s", g.Name, gj, wj)
		}
	}
	// The pins must reach both dual forms and the bitset-row G′, or a
	// kernel change in one form would go unchecked.
	var rowsDual, csrDual, rowsG bool
	for _, p := range got {
		rowsDual = rowsDual || p.BitsetDual
		csrDual = csrDual || !p.BitsetDual && !p.Disconnected
		rowsG = rowsG || p.BitsetBoundaries > 0
	}
	if !rowsDual || !csrDual || !rowsG {
		t.Errorf("pins reach a rows dual %v, a CSR dual %v, a rows G′ %v; want all", rowsDual, csrDual, rowsG)
	}
}

package perf

// TestPerfBaseline is the continuous-performance gate. It
//
//   - recomputes every family's deterministic work counters and
//     compares them exactly against the committed BENCH_perf.json
//     (machine-independent: only a behavior change moves them);
//   - measures allocs/op of the production builder, and of
//     netio.ReadFixed on the family's netio.Write text, and fails hard
//     on regression past the blessed values — the CI benchmark job
//     runs exactly this;
//   - always rewrites the gitignored BENCH_perf.timing.json sidecar so
//     successive commits leave a local perf trail without wall-clock
//     churn in the diff.
//
// No gate reads wall clock, so the test passes at any GOMAXPROCS.
//
// Re-bless after an intentional change with
//
//	go test ./internal/perf/ -run TestPerfBaseline -update
//
// which also regenerates testdata/baseline.bench.txt, the benchstat
// baseline the CI job diffs against.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fasthgp/internal/core"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/netio"
)

var update = flag.Bool("update", false, "re-bless BENCH_perf.json and testdata/baseline.bench.txt")

// Benchmark sinks, so the builds cannot be optimized away.
var (
	sinkResult *intersect.Result
	sinkParsed *hypergraph.Hypergraph
	sinkCut    int
)

// netlistOf returns h as netio.Write text.
func netlistOf(h *hypergraph.Hypergraph) []byte {
	var buf bytes.Buffer
	if err := netio.Write(&buf, h); err != nil {
		panic(fmt.Sprintf("perf: writing netlist: %v", err))
	}
	return buf.Bytes()
}

// readFixed parses data with netio.ReadFixed, which must accept it.
func readFixed(data []byte) *hypergraph.Hypergraph {
	h, _, err := netio.ReadFixed(bytes.NewReader(data))
	if err != nil {
		panic(fmt.Sprintf("perf: parsing netlist: %v", err))
	}
	return h
}

// BenchmarkIntersectBuild measures the production builder on every
// family. These are the dual-construction benchmarks the CI allocs
// gate and benchstat baseline refer to.
func BenchmarkIntersectBuild(b *testing.B) {
	for _, f := range Families() {
		opts := intersect.Options{Threshold: f.Threshold}
		h := f.H
		b.Run(f.Name+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkResult = intersect.Build(h, opts)
			}
		})
	}
}

// BenchmarkReadFixed measures the netlist parser on every family's
// netio.Write text, and on Table-2 IC2 (instance seed 1), the largest
// netlist each paper-flat solve parses.
func BenchmarkReadFixed(b *testing.B) {
	ic2, err := gen.Table2Instance(gen.IC2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range append([]Family{{Name: "IC2", H: ic2}}, Families()...) {
		data := netlistOf(f.H)
		b.Run(f.Name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkParsed = readFixed(data)
			}
		})
	}
}

// BenchmarkPipeline runs full Algorithm I multi-start on the dense
// family — construction, double-BFS cut, completion, packing — to
// track steady-state allocation of the whole scratch-threaded path.
func BenchmarkPipeline(b *testing.B) {
	f := denseFamily()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Bipartition(f.H, core.Options{Starts: 4, Seed: 1, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		sinkCut = res.CutSize
	}
}

func denseFamily() Family {
	for _, f := range Families() {
		if f.Dense {
			return f
		}
	}
	panic("perf: no dense family in the suite")
}

// familyEntry is one BENCH_perf.json row: the deterministic counters
// plus the allocs/op blessed at -update time (the regression bounds) of
// the dual build and of netio.ReadFixed on the family's netio.Write
// text.
type familyEntry struct {
	Name      string `json:"name"`
	Threshold int    `json:"threshold"`
	Counters
	AllocsPerOpNew   float64 `json:"allocs_per_op_new"`
	ParseAllocsPerOp float64 `json:"parse_allocs_per_op"`
}

// vcycleEntry is one row of BENCH_perf.json's vcycle section: the
// deterministic V-cycle scale counters and the allocations of one
// multilevel.Bisect of the family at Parallelism 1, blessed at -update
// time as a regression bound (see TestVCycleBaseline).
type vcycleEntry struct {
	Name string `json:"name"`
	VCycleCounters
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// perfFile mirrors BENCH_perf.json.
type perfFile struct {
	Suite    string        `json:"suite"`
	Families []familyEntry `json:"families"`
	// VCycle is the multilevel scale suite, blessed and gated by
	// TestVCycleBaseline; TestPerfBaseline preserves it on -update.
	VCycle []vcycleEntry `json:"vcycle,omitempty"`
}

// timingRow is one BENCH_perf.timing.json row — machine-dependent,
// gitignored.
type timingRow struct {
	Name    string  `json:"name"`
	NsNew   float64 `json:"ns_per_op_new"`
	NsParse float64 `json:"ns_per_op_parse"`
}

// measurement is a cheap local benchmark: minimum wall time over a few
// repetitions plus testing.AllocsPerRun, after one warm-up call so
// sync.Pool reuse is in steady state.
type measurement struct {
	ns     float64
	allocs float64
}

// measureHeadroom is how far the heap may grow while the collector is
// held off for an allocation count before the memory limit lets it run.
// The pooled builder stays well below it.
const measureHeadroom = 256 << 20

func measure(fn func()) measurement {
	allocs := countAllocs(5, fn)
	best := time.Duration(-1)
	var total time.Duration
	for i := 0; i < 3 || (total < 150*time.Millisecond && i < 200); i++ {
		begin := time.Now()
		fn()
		d := time.Since(begin)
		total += d
		if best < 0 || d < best {
			best = d
		}
	}
	return measurement{ns: float64(best.Nanoseconds()), allocs: allocs}
}

// countAllocs is testing.AllocsPerRun(runs, fn) with the collector
// held off. The kernels lease their buffers from sync.Pools, and
// collections inside the counting window empty them, so the count would
// read GC timing instead of the code. The collector stays off under a
// memory limit that caps what that can cost.
func countAllocs(runs int, fn func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	limit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + measureHeadroom)
	percent := debug.SetGCPercent(-1)
	fn() // warm pools
	allocs := testing.AllocsPerRun(runs, fn)
	debug.SetGCPercent(percent)
	debug.SetMemoryLimit(limit)
	return allocs
}

const (
	benchPath    = "../../BENCH_perf.json"
	timingPath   = "../../BENCH_perf.timing.json"
	baselinePath = "testdata/baseline.bench.txt"
)

func TestPerfBaseline(t *testing.T) {
	families := Families()
	entries := make([]familyEntry, 0, len(families))
	timings := make([]timingRow, 0, len(families))
	var got perfFile
	got.Suite = "intersect-build"

	for _, f := range families {
		opts := intersect.Options{Threshold: f.Threshold}
		h := f.H
		m := measure(func() { sinkResult = intersect.Build(h, opts) })
		data := netlistOf(h)
		pm := measure(func() { sinkParsed = readFixed(data) })
		entries = append(entries, familyEntry{
			Name:             f.Name,
			Threshold:        f.Threshold,
			Counters:         CountersFor(f),
			AllocsPerOpNew:   m.allocs,
			ParseAllocsPerOp: pm.allocs,
		})
		timings = append(timings, timingRow{Name: f.Name, NsNew: m.ns, NsParse: pm.ns})
		t.Logf("%-16s %8.0f ns/op %6.1f allocs/op; parse %8.0f ns/op %6.1f allocs/op", f.Name, m.ns, m.allocs, pm.ns, pm.allocs)
	}
	got.Families = entries

	// The timing sidecar is emitted on every run, pass or fail.
	writeJSON(t, timingPath, struct {
		Suite   string      `json:"suite"`
		Entries []timingRow `json:"families"`
	}{"intersect-build", timings})

	if *update {
		// Read-modify-write: the vcycle section belongs to
		// TestVCycleBaseline and must survive an intersect re-bless.
		if prev, err := os.ReadFile(benchPath); err == nil {
			var old perfFile
			if json.Unmarshal(prev, &old) == nil {
				got.VCycle = old.VCycle
			}
		}
		writeJSON(t, benchPath, &got)
		writeBenchstatBaseline(t, families)
		t.Logf("re-blessed %s and %s", benchPath, baselinePath)
		return
	}

	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("missing %s — run `go test ./internal/perf/ -run TestPerfBaseline -update`: %v", benchPath, err)
	}
	var want perfFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", benchPath, err)
	}
	wantByName := make(map[string]familyEntry, len(want.Families))
	for _, e := range want.Families {
		wantByName[e.Name] = e
	}
	for _, e := range entries {
		w, ok := wantByName[e.Name]
		if !ok {
			t.Errorf("family %q missing from BENCH_perf.json — re-bless with -update", e.Name)
			continue
		}
		if e.Counters != w.Counters || e.Threshold != w.Threshold {
			t.Errorf("%s: counters changed\n got %+v thr=%d\nwant %+v thr=%d — construction workload moved; re-bless with -update if intentional",
				e.Name, e.Counters, e.Threshold, w.Counters, w.Threshold)
		}
		// Hard allocation gates: the live builder and parser may not
		// regress past the blessed allocs/op (small absolute slack
		// absorbs pool and GC noise).
		if slack := math.Max(2, w.AllocsPerOpNew/2); e.AllocsPerOpNew > w.AllocsPerOpNew+slack {
			t.Errorf("%s: allocs/op regression: %.1f > blessed %.1f (+%.1f slack)",
				e.Name, e.AllocsPerOpNew, w.AllocsPerOpNew, slack)
		}
		if slack := math.Max(2, w.ParseAllocsPerOp/2); e.ParseAllocsPerOp > w.ParseAllocsPerOp+slack {
			t.Errorf("%s: parse allocs/op regression: %.1f > blessed %.1f (+%.1f slack)",
				e.Name, e.ParseAllocsPerOp, w.ParseAllocsPerOp, slack)
		}
	}
	for name := range wantByName {
		found := false
		for _, e := range entries {
			if e.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("BENCH_perf.json family %q is gone from the suite — re-bless with -update", name)
		}
	}
}

// writeBenchstatBaseline records the dual-construction benchmarks in Go
// benchmark format via testing.Benchmark, for the CI benchstat diff.
func writeBenchstatBaseline(t *testing.T, families []Family) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("goos: %s\ngoarch: %s\npkg: fasthgp/internal/perf\n", runtime.GOOS, runtime.GOARCH)
	for _, f := range families {
		opts := intersect.Options{Threshold: f.Threshold}
		h := f.H
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkResult = intersect.Build(h, opts)
			}
		})
		out += fmt.Sprintf("BenchmarkIntersectBuild/%s/new-%d\t%s\t%s\n",
			f.Name, runtime.GOMAXPROCS(0), r.String(), r.MemString())
	}
	for _, f := range families {
		data := netlistOf(f.H)
		r := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkParsed = readFixed(data)
			}
		})
		out += fmt.Sprintf("BenchmarkReadFixed/%s-%d\t%s\t%s\n",
			f.Name, runtime.GOMAXPROCS(0), r.String(), r.MemString())
	}
	if err := os.WriteFile(baselinePath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

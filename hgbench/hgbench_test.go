package main

// Smoke tests run tiny versions of every workload through the same code
// paths as the benchmark and assert counts, cuts and verification only,
// never timing.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"fasthgp/internal/partition"
)

// TestMain lets the fleet's loopback calibrator re-execute the test
// binary as its echo server.
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) == "1" {
		os.Exit(serveEcho(os.Stdout))
	}
	os.Exit(m.Run())
}

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, bj.EndToEnd, bj.PerLayer
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s: hgbench has %v, BENCHMARK.json declares %v", what, g, w)
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	workloads, e2e, layers := declared(t)
	sameSet(t, "workloads", workloadNames, workloads)
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layers}} {
		sameSet(t, c.what, names(c.got), names(c.want))
		want := make(map[string]metricDef)
		for _, d := range c.want {
			want[d.Name] = d
		}
		for _, d := range c.got {
			if w, ok := want[d.Name]; ok && w != d {
				t.Errorf("%s: hgbench declares %+v, BENCHMARK.json %+v", c.what, d, w)
			}
		}
	}
}

// checkEmitted fails unless res is a clean run whose metrics are
// exactly the declared set of its mode.
func checkEmitted(t *testing.T, res result, traced bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run not clean: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	_, e2e, layers := declared(t)
	want := names(e2e)
	if traced {
		want = names(layers)
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sameSet(t, "emitted metrics", got, want)
}

func tinyWorkloads() []*computeWorkload {
	return []*computeWorkload{
		{name: "paper-flat", instances: table2Instances()[:2], seeds: 2},
		{name: "paper-balanced", instances: table2Instances()[:2], seeds: 2, constraint: partition.Constraint{Epsilon: 0.1}},
		{name: "vcycle-powerlaw", instances: powerLawInstances(600, 900, 11), seeds: 2, vcycle: true},
	}
}

func TestComputeSmoke(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 1, seconds: 1}
			plain, err := w.run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, plain, false)
			solves := w.seeds * len(w.instances)
			if plain.Attempted%solves != 0 {
				t.Errorf("attempted %d is not whole cycles of %d solves", plain.Attempted, solves)
			}
			if plain.Metrics["cut_sum"].Value <= 0 {
				t.Errorf("cut_sum %v", plain.Metrics["cut_sum"].Value)
			}

			// The solve list is pinned and the seed only orders it, so
			// counts repeat exactly across seeds too.
			o.trace = true
			var counts []map[string]float64
			for i := 0; i < 2; i++ {
				o.seed = int64(1 + i)
				traced, err := w.run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				checkEmitted(t, traced, true)
				if traced.Attempted != 2*solves {
					t.Errorf("traced run attempted %d solves, want %d", traced.Attempted, 2*solves)
				}
				c := make(map[string]float64)
				for _, d := range perLayer {
					if d.Unit == "count" || d.Unit == "B" {
						c[d.Name] = traced.Metrics[d.Name].Value
					}
				}
				counts = append(counts, c)
			}
			for name, v := range counts[0] {
				if counts[1][name] != v {
					t.Errorf("%s: %v then %v; counts must repeat exactly", name, v, counts[1][name])
				}
			}
			layer := map[string]string{
				"paper-flat":      "core.losers",
				"paper-balanced":  "rebalance.moves",
				"vcycle-powerlaw": "coarsen.levels",
			}[w.name]
			if counts[0][layer] <= 0 || counts[0]["intersect.g_edges"] <= 0 {
				t.Errorf("%s = %v, intersect.g_edges = %v; the replay did not run", layer, counts[0][layer], counts[0]["intersect.g_edges"])
			}
		})
	}
}

func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemons")
	}
	w, _ := workloadByName("service-fleet")
	o := options{seed: 1, seconds: 1, repo: "..", build: t.TempDir()}
	res, err := w.run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, false)
	if res.Metrics["cut_sum"].Value <= 0 {
		t.Errorf("cut_sum %v", res.Metrics["cut_sum"].Value)
	}

	o.trace = true
	res, err = w.run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, true)
	for _, name := range []string{"hgpartd.wal_records", "hgpartcoord.wal_records", "hgpartcoord.forwards", "netio.bytes"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	if r := res.Metrics["hgpartd.cache_hit_ratio"].Value; r <= 0 || r >= 1 {
		t.Errorf("cache hit ratio %v, want strictly between 0 and 1", r)
	}
}

func TestRequestMix(t *testing.T) {
	w, _ := workloadByName("service-fleet")
	fw := w.(*fleetWorkload)
	const n = 22 // testdata/corpus
	sent := 4 * fw.hot
	for c := 0; c < fw.clients; c++ {
		hot := make(map[int]bool)
		misses, hotSent := 0, 0
		for j := 0; j < sent; j++ {
			r := fw.request(1, n, c, j)
			if r.hot < 0 {
				misses++
				continue
			}
			if r.entry != r.hot || r.hot >= fw.hot {
				t.Fatalf("hot pair %d sends netlist %d", r.hot, r.entry)
			}
			if other := fw.request(2, n, c, j); other != r {
				t.Errorf("hot request %d depends on the seed: %+v, then %+v", j, r, other)
			}
			if hotSent < fw.hot {
				hot[r.hot] = true
			}
			hotSent++
		}
		if len(hot) != fw.hot {
			t.Errorf("client %d: the first %d hot requests cover %d pairs", c, fw.hot, len(hot))
		}
		if misses*fw.missEvery != sent {
			t.Errorf("client %d: %d cache-missing requests of %d, want one in %d", c, misses, sent, fw.missEvery)
		}
	}
	if a, b := fw.request(1, n, 0, 1), fw.request(1, n, 1, 1); a.seed == b.seed {
		t.Errorf("both clients' cache-missing requests share seed %d", a.seed)
	}
	if a, b := fw.request(1, n, 0, 1), fw.request(2, n, 0, 1); a.seed == b.seed {
		t.Errorf("cache-missing requests ignore the seed: %d twice", a.seed)
	}
}

func TestCycleIsPinned(t *testing.T) {
	w := tinyWorkloads()[0]
	insts, err := w.generate()
	if err != nil {
		t.Fatal(err)
	}
	key := func(jobs []job) []string {
		var out []string
		for _, jb := range jobs {
			out = append(out, fmt.Sprintf("%s/%d", jb.inst.name, jb.seed))
		}
		return out
	}
	a, b := key(w.cycle(insts, 1)), key(w.cycle(insts, 2))
	if len(a) != w.seeds*len(insts) {
		t.Fatalf("cycle has %d solves, want %d", len(a), w.seeds*len(insts))
	}
	if strings.Join(a, ",") == strings.Join(b, ",") {
		t.Error("the seed does not change the solve order")
	}
	sameSet(t, "solves under seeds 1 and 2", a, b)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {112, 90}, {480, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestP50Gmean(t *testing.T) {
	// The pooled median, 51.5, lies in the gap between the instances;
	// the geometric mean of their medians is sqrt(2 * 200).
	groups := map[string][]float64{"small": {3, 1, 2}, "large": {100, 300, 200}}
	if got := p50Gmean(groups); math.Abs(got-20) > 1e-9 {
		t.Errorf("p50Gmean = %v, want 20", got)
	}
	if got := len(pooled(groups)); got != 6 {
		t.Errorf("pooled has %d samples, want 6", got)
	}
}

func TestOverlap(t *testing.T) {
	pauses := [][2]time.Duration{{0, 10}, {20, 30}, {40, 50}}
	if got := overlap(pauses, 5, 45); got != 20 {
		t.Errorf("overlap = %v, want 20", got)
	}
	if got := overlap(pauses, 10, 20); got != 0 {
		t.Errorf("overlap between pauses = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(id, parent int, name string, start, end int) span {
		return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
	}
	spans := []span{
		at(0, -1, "solve", 0, 100),
		at(1, 0, "parse", 10, 30),
		at(2, 0, "partition", 20, 50), // overlaps parse: 10–50 covered once
		at(3, 0, "verify", 90, 120),   // clipped to the parent's end
		at(4, 2, "inner", 25, 35),     // a grandchild covers its own parent only
		at(5, -1, "solve", 200, 210),  // a second root, no children
	}
	got := make(map[string]selfRow)
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	for name, want := range map[string]selfRow{
		"solve":     {Name: "solve", Count: 2, Total: 110, Self: 100 - 50 + 10},
		"parse":     {Name: "parse", Count: 1, Total: 20, Self: 20},
		"partition": {Name: "partition", Count: 1, Total: 30, Self: 20},
		"verify":    {Name: "verify", Count: 1, Total: 30, Self: 30},
		"inner":     {Name: "inner", Count: 1, Total: 10, Self: 10},
	} {
		if got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want)
		}
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// A run on a machine twice as fast as the reference (factor 2)
	// reports times doubled and rates halved. cut_sum is not a time, and
	// setup_s is scaled by the set-up's own calibration.
	values := map[string]float64{"latency_ms_p50_gmean": 1, "latency_ms_p90": 3, "ops_per_s": 100, "setup_s": 0.5, "cut_sum": 7}
	atReferenceSpeed(values, 2)
	want := map[string]float64{"latency_ms_p50_gmean": 2, "latency_ms_p90": 6, "ops_per_s": 50, "setup_s": 0.5, "cut_sum": 7}
	for name, w := range want {
		if values[name] != w {
			t.Errorf("%s = %v, want %v", name, values[name], w)
		}
	}
}

func TestReportChecksNames(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms", "lower"}, {"b", "count", "lower"}}
	if _, err := report(map[string]float64{"a_ms": 1}, defs, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	m, err := report(map[string]float64{"a_ms": 1}, defs, true)
	if err != nil || m["b"].Value != 0 || m["a_ms"].Unit != "ms" {
		t.Errorf("per-layer report: %v, %v", m, err)
	}
	if _, err := report(map[string]float64{"a_ms": 1, "b": 2, "c": 3}, defs, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run reports on every workload.
// A compute operation is one solve (netlist bytes in, verified
// assignment out); a service-fleet operation is one HTTP request.
var endToEnd = []metricDef{
	{"latency_ms_p50_gmean", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cut_sum", "nets", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not run reads 0. Times are summed over one
// cycle of the compute workloads and over the whole load of
// service-fleet.
var perLayer = []metricDef{
	{"netio.parse_ms", "ms", "lower"},
	{"netio.bytes", "B", "lower"},
	{"checkpoint.fingerprint_ms", "ms", "lower"},
	{"intersect.build_ms", "ms", "lower"},
	{"intersect.arcs", "count", "lower"},
	{"intersect.g_edges", "count", "lower"},
	{"graph.pseudo_diameter_ms", "ms", "lower"},
	{"graph.double_bfs_ms", "ms", "lower"},
	{"core.boundary_ms", "ms", "lower"},
	{"core.boundary_nets", "count", "lower"},
	{"core.complete_cut_ms", "ms", "lower"},
	{"core.losers", "count", "lower"},
	{"core.apply_ms", "ms", "lower"},
	{"core.bipartition_ms", "ms", "lower"},
	{"core.residual_ms", "ms", "lower"},
	{"rebalance.enforce_ms", "ms", "lower"},
	{"rebalance.moves", "count", "lower"},
	{"coarsen.hierarchy_ms", "ms", "lower"},
	{"coarsen.levels", "count", "lower"},
	{"coarsen.coarsest_modules", "count", "lower"},
	{"coarsen.coarsest_nets", "count", "lower"},
	{"coarsen.coarsest_pins", "count", "lower"},
	{"fm.improve_ms", "ms", "lower"},
	{"multilevel.flow_nodes", "count", "lower"},
	{"multilevel.flow_augmentations", "count", "lower"},
	{"multilevel.flow_rounds", "count", "lower"},
	{"multilevel.flow_residual_ms", "ms", "lower"},
	{"verify.check_ms", "ms", "lower"},
	{"checkpoint.wal_append_ms", "ms", "lower"},
	{"hgpartd.wal_records", "count", "lower"},
	{"hgpartcoord.wal_records", "count", "lower"},
	{"hgpartd.cache_hit_ratio", "ratio", "higher"},
	{"hgpartd.busy", "count", "lower"},
	{"hgpartcoord.forwards", "count", "lower"},
	{"hgpartcoord.rerouted", "count", "lower"},
	{"service.residual_ms", "ms", "lower"},
	{"process.peak_rss_mb", "MiB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report turns measured values into the declared metric set: every
// declared metric appears (missing per-layer metrics read 0, a missing
// end-to-end metric is an error) and an undeclared name is an error.
func report(values map[string]float64, defs []metricDef, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// printMetrics prints one line per metric, in declaration order, with
// the sample note each measurement supplied.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metric, notes map[string]string) {
	for _, d := range defs {
		v := m[d.Name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s (%s is better) %s\n", d.Name, v.Value, v.Unit, d.Better, notes[d.Name])
	}
	var extra []string
	for name := range notes {
		if _, ok := m[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-30s %s\n", name, notes[name])
	}
}

package main

// Compute workloads. A cycle is the workload's fixed solve list: every
// pinned instance once under each of the cycle's engine seeds. Solves
// are serial and start from netlist text held in memory, so each one is
// the production path end to end: netio.Read → partition →
// verify.CheckConstraint.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"syscall"
	"time"

	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/multilevel"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

// The solve list is pinned — instances and engine seeds alike — and
// -seed only shuffles the order of the solves. With seed-dependent
// solves, the seed-to-seed spread of the cut sum and of paper-balanced
// time measured the seeds rather than the code, and a cut sum that
// depends on the seed cannot carry a zero regression bound (see README).
const (
	table2Seed  = 1  // gen.Table2Instance seed of every Table-2 family
	engineSeed  = 1  // the cycle's j-th engine seed is engine.StartSeed(engineSeed, j)
	paperStarts = 50 // random longest paths per solve, as in the paper's runs
)

// instanceSpec generates one pinned instance.
type instanceSpec struct {
	name string
	gen  func() (*hypergraph.Hypergraph, error)
}

// computeWorkload is one compute workload's solve list.
type computeWorkload struct {
	name       string
	instances  []instanceSpec
	seeds      int  // engine seeds per cycle
	vcycle     bool // multilevel.Bisect instead of core.Bipartition
	constraint partition.Constraint
}

func table2Instances() []instanceSpec {
	var specs []instanceSpec
	for _, name := range gen.Table2Names() {
		name := name
		specs = append(specs, instanceSpec{string(name), func() (*hypergraph.Hypergraph, error) {
			return gen.Table2Instance(name, table2Seed)
		}})
	}
	return specs
}

// powerLawInstances pins one gen.PowerLaw instance per generator seed.
// Seed 11 at n=4000 is BENCH_perf.json's vcycle-powerlaw-smoke instance.
func powerLawInstances(n, nets int, seeds ...int64) []instanceSpec {
	var specs []instanceSpec
	for _, s := range seeds {
		s := s
		specs = append(specs, instanceSpec{fmt.Sprintf("powerlaw-%d-s%d", n, s), func() (*hypergraph.Hypergraph, error) {
			return gen.PowerLaw(n, gen.PowerLawConfig{NumEdges: nets}, rand.New(rand.NewSource(s)))
		}})
	}
	return specs
}

func (w *computeWorkload) coreOptions(seed int64) core.Options {
	return core.Options{Starts: paperStarts, Seed: seed, Parallelism: 1, KernelWorkers: 1, Constraint: w.constraint}
}

// vcycleOptions are `hgpart -algo multilevel -starts 1` run serially.
func vcycleOptions(seed int64) multilevel.Options {
	return multilevel.Options{Starts: 1, Seed: seed, Parallelism: 1, KernelWorkers: 1}
}

// instance is a generated instance serialized to the text every solve
// parses.
type instance struct {
	name string
	data []byte
}

// generate builds and serializes the instances.
func (w *computeWorkload) generate() ([]instance, error) {
	insts := make([]instance, len(w.instances))
	for i, spec := range w.instances {
		h, err := spec.gen()
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", spec.name, err)
		}
		var buf bytes.Buffer
		if err := netio.Write(&buf, h); err != nil {
			return nil, fmt.Errorf("serializing %s: %w", spec.name, err)
		}
		insts[i] = instance{name: spec.name, data: buf.Bytes()}
	}
	return insts, nil
}

// solved is the outcome of one production solve.
type solved struct {
	h    *hypergraph.Hypergraph
	cut  int
	core *core.Result
	ml   *multilevel.Result
}

// solve runs one production solve and returns its latency.
func (w *computeWorkload) solve(tr *tracer, op int, inst instance, seed int64) (solved, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin(op, -1, "solve")
	var s solved
	err := func() error {
		sp := tr.begin(op, root, "netio.parse")
		h, err := netio.Read(bytes.NewReader(inst.data))
		tr.end(sp)
		if err != nil {
			return err
		}
		s.h = h
		var p *partition.Bipartition
		if w.vcycle {
			sp = tr.begin(op, root, "multilevel.bisect")
			s.ml, err = multilevel.Bisect(h, vcycleOptions(seed))
			tr.end(sp)
			if err != nil {
				return err
			}
			p, s.cut = s.ml.Partition, s.ml.CutSize
		} else {
			sp = tr.begin(op, root, "core.bipartition")
			s.core, err = core.Bipartition(h, w.coreOptions(seed))
			tr.end(sp)
			if err != nil {
				return err
			}
			p, s.cut = s.core.Partition, s.core.CutSize
		}
		sp = tr.begin(op, root, "verify.check")
		rep, err := verify.CheckConstraint(h, p, w.constraint)
		tr.end(sp)
		if err != nil {
			return err
		}
		if rep.CutSize != s.cut {
			return fmt.Errorf("claimed cut %d, oracle recomputed %d", s.cut, rep.CutSize)
		}
		return nil
	}()
	tr.end(root)
	if err != nil {
		return s, 0, fmt.Errorf("%s seed %d: %w", inst.name, seed, err)
	}
	return s, time.Since(t0), nil
}

// job is one solve of the cycle: an instance under an engine seed.
type job struct {
	inst instance
	seed int64
}

// cycle is the workload's solve list — every instance under each
// pinned engine seed — in an order shuffled by seed.
func (w *computeWorkload) cycle(insts []instance, seed int64) []job {
	jobs := make([]job, 0, w.seeds*len(insts))
	for j := 0; j < w.seeds; j++ {
		for _, inst := range insts {
			jobs = append(jobs, job{inst, engine.StartSeed(engineSeed, j)})
		}
	}
	rng := engine.StartRNG(seed, 0)
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// cycleResult summarizes one cycle.
type cycleResult struct {
	latencies map[string][]float64 // ms per verified solve, by instance
	cutSum    int
	failed    int
}

// runCycle runs the solve list once, keeping the calibration up after
// each solve. With layer counts to fill, each solve is replayed layer by
// layer right after it (see replay.go).
func (w *computeWorkload) runCycle(tr *tracer, cal *calibrator, jobs []job, lc *layerCounts) cycleResult {
	cr := cycleResult{latencies: make(map[string][]float64)}
	for op, jb := range jobs {
		out, lat, err := w.solve(tr, op, jb.inst, jb.seed)
		cal.keepUp()
		if err == nil {
			cr.latencies[jb.inst.name] = append(cr.latencies[jb.inst.name], ms(lat))
			cr.cutSum += out.cut
			if lc != nil {
				err = w.replay(tr, op, jb.inst, jb.seed, out, lc)
			}
		}
		if err != nil {
			cr.failed++
			fmt.Fprintf(os.Stderr, "hgbench: %s: %v\n", w.name, err)
		}
	}
	return cr
}

func (w *computeWorkload) run(o options, out io.Writer) (result, error) {
	var insts []instance
	st := newSetupTimer()
	for r := 0; r < setupReps; r++ {
		if err := st.time(func() (err error) {
			insts, err = w.generate()
			return err
		}); err != nil {
			return result{}, err
		}
	}
	// One untimed solve of the largest instance first, so the heap
	// growth and page faults of a fresh process stay out of the
	// measured solves.
	largest := insts[0]
	for _, inst := range insts {
		if len(inst.data) > len(largest.data) {
			largest = inst
		}
	}
	if _, _, err := w.solve(nil, 0, largest, engine.StartSeed(engineSeed, 0)); err != nil {
		return result{}, err
	}
	jobs := w.cycle(insts, o.seed)
	if o.trace {
		return w.runTraced(o, jobs, out)
	}

	// Whole cycles only, so every run weighs the instances alike: start
	// another cycle while it is expected to end within the budget.
	budget := time.Duration(o.seconds) * time.Second
	cal := newSortCalibrator()
	start := time.Now()
	byInst := make(map[string][]float64)
	var lastCycle time.Duration
	failed, cycles, cutSum := 0, 0, 0
	for cycles == 0 || time.Since(start)+lastCycle <= budget {
		c0 := time.Now()
		cr := w.runCycle(nil, cal, jobs, nil)
		lastCycle = time.Since(c0)
		for name, xs := range cr.latencies {
			byInst[name] = append(byInst[name], xs...)
		}
		failed += cr.failed
		if cycles == 0 {
			cutSum = cr.cutSum
		} else if cr.cutSum != cutSum {
			failed++
			fmt.Fprintf(os.Stderr, "hgbench: %s: cycle %d cut sum %d, cycle 0 had %d: the solves are not deterministic\n",
				w.name, cycles, cr.cutSum, cutSum)
		}
		cycles++
	}
	elapsed := time.Since(start) - cal.spent
	if len(byInst) != len(insts) {
		return result{}, fmt.Errorf("%d of %d instances had no verified solve", len(insts)-len(byInst), len(insts))
	}

	lat := pooled(byInst)
	values := map[string]float64{
		"latency_ms_p50_gmean": p50Gmean(byInst),
		"latency_ms_p90":       quantile(lat, 0.9),
		"ops_per_s":            float64(len(lat)) / elapsed.Seconds(),
		"cut_sum":              float64(cutSum),
	}
	notes := latencyNotes(len(lat))
	notes["latency_ms_p50_gmean"] = fmt.Sprintf("over %d instances, each the median of %d solves; pooled p50 %.4f ms raw",
		len(byInst), len(lat)/len(byInst), median(lat))
	notes["ops_per_s"] = fmt.Sprintf("%d solves in %d cycle(s) of %d, %.2f s", len(lat), cycles, len(jobs), elapsed.Seconds())
	notes["cut_sum"] = fmt.Sprintf("one cycle, identical in all %d", cycles)
	cal.apply(values, notes)
	values["setup_s"], notes["setup_s"] = st.seconds("generate + netio.Write")
	return finish(out, w.name, values, notes, endToEnd, false, cycles*len(jobs), failed)
}

// runTraced runs one cycle untraced and one traced, replaying each
// traced solve layer by layer. trace.overhead_ratio compares the
// production solves of the two cycles.
func (w *computeWorkload) runTraced(o options, jobs []job, out io.Writer) (result, error) {
	plain := w.runCycle(nil, nil, jobs, nil)
	// Peak RSS before the traced cycle: production solves only.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	tr := newTracer()
	var lc layerCounts
	traced := w.runCycle(tr, nil, jobs, &lc)
	failed := plain.failed + traced.failed
	if plain.cutSum != traced.cutSum {
		failed++
		fmt.Fprintf(os.Stderr, "hgbench: %s: traced cycle cut sum %d, untraced %d\n", w.name, traced.cutSum, plain.cutSum)
	}

	spans := tr.snapshot()
	sum := sumByName(spans)
	values := lc.values()
	for k, v := range spanTotals(sum) {
		values[k] = v
	}
	values["core.boundary_ms"] = sum["core.partial"] - sum["graph.double_bfs"]
	values["core.residual_ms"] = sum["core.bipartition"] - (sum["intersect.build"] + sum["graph.pseudo_diameter"] +
		sum["core.partial"] + sum["core.complete_cut"] + sum["core.apply"] + sum["rebalance.enforce"])
	if w.vcycle {
		values["multilevel.flow_residual_ms"] = sum["multilevel.bisect"] -
			(sum["coarsen.hierarchy"] + sum["core.bipartition"] + sum["fm.improve"])
	}
	values["trace.overhead_ratio"] = total(pooled(traced.latencies)) / total(pooled(plain.latencies))
	values["process.peak_rss_mb"] = rssMiB(&ru)

	printSelfTimes(out, w.name, selfTimes(spans))
	notes := map[string]string{
		"core.residual_ms":     "core.bipartition minus its replayed layers",
		"trace.overhead_ratio": fmt.Sprintf("traced / untraced production solves, %d each", len(pooled(traced.latencies))),
		"process.peak_rss_mb":  "this process, after the untraced cycle",
	}
	if w.vcycle {
		notes["core.residual_ms"] += " (weighted completion is not replayed)"
		notes["multilevel.flow_residual_ms"] = "multilevel.bisect minus hierarchy, initial cut and FM"
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			return result{}, err
		}
	}
	return finish(out, w.name, values, notes, perLayer, true, 2*len(jobs), failed)
}

// latencyNotes states the sample count behind the latency metrics and
// whether p90 has at least minBeyond samples beyond it.
func latencyNotes(n int) map[string]string {
	tail := fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 90))
	if p := tailPercentile(n); p < 90 {
		tail += fmt.Sprintf(" (fewer than %d: a coarse tail)", minBeyond)
	} else {
		tail += fmt.Sprintf("; highest percentile with >= %d beyond: p%g", minBeyond, p)
	}
	return map[string]string{"latency_ms_p90": tail}
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rssMiB converts a Linux rusage peak RSS (KiB) to MiB.
func rssMiB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// Command hgpart partitions a netlist file with any of the library's
// algorithms and reports the cut.
//
// Usage:
//
//	hgpart -in netlist.nets [-algo algI|kl|fm|sa|random] [flags]
//
// With -algo algI (the default), the paper's Algorithm I runs with the
// given number of random longest-path starts, completion rule and
// large-net threshold. The tool prints cutsize, balance, timing, and
// optionally the side assignment of every module.
//
// Every algorithm runs on the shared multi-start engine: -starts sets
// the multi-start count, -parallel fans the starts across workers
// (never changing the result; each start itself runs serially, so
// this is the only parallelism), -timeout returns the best cut found
// within a wall-clock budget, and -stats prints the engine's account
// of the run. -verify recomputes every invariant of the reported
// result with the internal/verify oracle and exits nonzero on any
// violation.
//
// -fallback names a comma-separated chain of cheaper algorithms to
// degrade to when the primary -algo panics, times out, or returns an
// oracle-rejected result, and -budget bounds the whole chain's wall
// time; together they run the resilience portfolio:
//
//	hgpart -in netlist.nets -algo multilevel -fallback fm,core -budget 2s
//
// -checkpoint journals every completed start to a crash-safe file;
// after a crash (power loss, OOM kill, SIGKILL) the same invocation
// plus -resume continues from the journal and returns a result
// bit-for-bit identical to an uninterrupted run:
//
//	hgpart -in netlist.nets -algo fm -starts 50 -checkpoint run.ckpt -resume
//
// -scrub is a standalone mode: it re-walks the CRC frames of any
// checkpoint or WAL journal read-only and exits 0 (clean) or 1 (torn
// tail or mid-file rot), without truncating or repairing anything:
//
//	hgpart -scrub /var/lib/hgpartd/wal
//
// -epsilon and -fixed impose the unified balance contract on any
// algorithm: -epsilon bounds each side at (1+eps)·⌈w(V)/2⌉ (per part
// for -k > 2), and -fixed names an hMETIS-style fix file pinning
// vertices to sides (one part id per line, -1 free). Netlists in the
// nets format may also pin modules inline with fixed directives; a
// -fixed file overrides them. The result is certified against the
// contract when -verify is set:
//
//	hgpart -in netlist.nets -algo fm -epsilon 0.1 -fixed pins.fix -verify
//
// -cpuprofile and -memprofile write pprof profiles of the run (the CPU
// profile covers everything after flag parsing; the heap profile is
// captured after a final GC on exit) for use with go tool pprof.
//
// Every error path prints to stderr and exits non-zero (2 for flag
// errors, 1 for everything else); partial results are never reported
// with a success status.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fasthgp"
	"fasthgp/internal/checkpoint"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, executes, writes
// reports to stdout and errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgpart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input netlist file (netio format); required")
		algo       = fs.String("algo", "algI", "algorithm: algI, multilevel, kl, fm, sa, flow, spectral, random")
		format     = fs.String("format", "nets", "input format: nets (netio) or hgr (hMETIS)")
		k          = fs.Int("k", 2, "number of parts; k > 2 uses K-way recursive bisection")
		starts     = fs.Int("starts", 50, "multi-start count: longest paths (algI), restarts (kl/fm/sa/spectral/random), seed pairs (flow), V-cycles (multilevel)")
		threshold  = fs.Int("threshold", 0, "Algorithm I: exclude nets with >= this many pins (0 = off)")
		completion = fs.String("completion", "greedy", "Algorithm I: boundary completion: greedy, exact, weighted")
		objective  = fs.String("objective", "cut", "Algorithm I: objective: cut, quotient")
		seed       = fs.Int64("seed", 1, "random seed")
		epsilon    = fs.Float64("epsilon", 0, "balance bound: each side at most (1+epsilon)*ceil(total/k) weight (0 = unconstrained)")
		fixedPath  = fs.String("fixed", "", "hMETIS-style fix file pinning vertices to sides (one part id per line, -1 = free); overrides inline fixed directives")
		parallel   = fs.Int("parallel", 0, "engine workers fanning the starts (0 = GOMAXPROCS); affects wall time only, never the result")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms; on expiry the best cut found so far is reported (0 = none)")
		fallback   = fs.String("fallback", "", "comma-separated fallback chain after -algo (e.g. fm,core); runs the resilience portfolio")
		budget     = fs.Duration("budget", 0, "portfolio wall budget across the whole -fallback chain, e.g. 2s (0 = -timeout)")
		ckptPath   = fs.String("checkpoint", "", "crash-safe journal path: every completed start is fsynced there as the run progresses")
		resume     = fs.Bool("resume", false, "with -checkpoint: resume an interrupted run from the journal (bit-for-bit identical result); a missing journal starts fresh")
		scrubPath  = fs.String("scrub", "", "standalone mode: integrity-scrub the checkpoint/WAL journal at this path (read-only CRC re-walk) and exit — 0 clean, 1 torn or unreadable")
		faults     = fs.String("faultinject", "", "fault-injection spec, e.g. 'panic@engine.start:2' (also read from FASTHGP_FAULTS)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
		vcycle     = fs.Bool("vcycle", true, "multilevel: corridor max-flow refinement at the finest uncoarsening level (false = FM-only flat pass)")
		stats      = fs.Bool("stats", false, "print engine multi-start statistics")
		doVerify   = fs.Bool("verify", false, "recheck the result with the invariant oracle; exit nonzero on any violation")
		verbose    = fs.Bool("v", false, "print the side of every module")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpart:", err)
		return 1
	}
	// Standalone scrub mode: re-walk a journal's CRC frames read-only and
	// report, without opening it for repair — the operator's tool for
	// checking a WAL or checkpoint for bit rot before trusting a replay.
	if *scrubPath != "" {
		rep, err := checkpoint.ScrubFile(*scrubPath)
		if err != nil {
			return fail(fmt.Errorf("scrub: %w", err))
		}
		fmt.Fprintln(stdout, rep.String())
		if !rep.OK() {
			fmt.Fprintln(stderr, "hgpart: journal is torn or rotten; Open would truncate to the intact prefix")
			return 1
		}
		return 0
	}
	if *in == "" {
		fmt.Fprintln(stderr, "hgpart: -in is required")
		fs.Usage()
		return 2
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProfile != "" {
		// Written on every exit path so a profile survives even a failed
		// run; GC first so the heap profile reflects live objects.
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "hgpart: memprofile:", err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintln(stderr, "hgpart: memprofile:", err)
			}
		}()
	}
	if spec := *faults; spec != "" || os.Getenv("FASTHGP_FAULTS") != "" {
		if spec == "" {
			spec = os.Getenv("FASTHGP_FAULTS")
		}
		plan, err := faultinject.ParseSpec(spec)
		if err != nil {
			return fail(err)
		}
		defer faultinject.Install(plan)()
	}
	var h *fasthgp.Hypergraph
	var inlineFixed []int8
	switch *format {
	case "nets":
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		h, inlineFixed, err = fasthgp.ReadNetlistFixed(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	case "hgr":
		// Zero-copy path: mmap the file where the platform allows, so
		// even gigabyte benchmarks never materialize token slices.
		var err error
		h, err = fasthgp.ReadHMetisFile(*in)
		if err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown format %q", *format))
	}
	constraint := fasthgp.Constraint{Epsilon: *epsilon, FixedSide: inlineFixed}
	if *fixedPath != "" {
		ff, err := os.Open(*fixedPath)
		if err != nil {
			return fail(err)
		}
		constraint.FixedSide, err = fasthgp.ReadHMetisFix(ff, h.NumVertices())
		ff.Close()
		if err != nil {
			return fail(err)
		}
	}
	if err := constraint.Validate(h.NumVertices(), *k); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "netlist: %d modules, %d nets, %d pins\n", h.NumVertices(), h.NumEdges(), h.NumPins())
	if !constraint.IsZero() {
		pinned := 0
		for _, f := range constraint.FixedSide {
			if f >= 0 {
				pinned++
			}
		}
		fmt.Fprintf(stdout, "constraint: epsilon %g, %d fixed vertices\n", constraint.Epsilon, pinned)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *fallback != "" || *budget > 0 {
		if *k > 2 {
			return fail(fmt.Errorf("-fallback/-budget support bipartitioning only (got -k %d)", *k))
		}
		if *ckptPath != "" {
			return fail(fmt.Errorf("-checkpoint cannot be combined with -fallback/-budget"))
		}
		return runPortfolio(ctx, h, *algo, *fallback, *budget, *starts, *seed, *parallel, constraint, *doVerify, *verbose, stdout, stderr)
	}

	if *resume && *ckptPath == "" {
		return fail(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *ckptPath != "" {
		if *k > 2 {
			return fail(fmt.Errorf("-checkpoint supports bipartitioning only (got -k %d)", *k))
		}
		return runCheckpointed(ctx, h, *algo, *ckptPath, *resume,
			fasthgp.AlgoConfig{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint},
			*stats, *doVerify, *verbose, stdout, stderr)
	}

	if *k > 2 {
		start := time.Now()
		res, err := fasthgp.KWayCtx(ctx, h, fasthgp.KWayOptions{K: *k, Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "k-way recursive bisection: k = %d\n", *k)
		fmt.Fprintf(stdout, "cut nets: %d (of %d), connectivity sum(lambda-1): %d\n", res.CutNets, h.NumEdges(), res.Connectivity)
		fmt.Fprintf(stdout, "part weights: %v\n", res.PartWeights)
		fmt.Fprintf(stdout, "time: %s\n", elapsed.Round(time.Microsecond))
		if *stats {
			printStats(stdout, res.Engine)
		}
		if *doVerify {
			rep, err := fasthgp.VerifyKWay(h, res.Part, *k, constraint)
			if err != nil {
				return fail(fmt.Errorf("verification FAILED: %w", err))
			}
			if rep.CutNets != res.CutNets || rep.Connectivity != res.Connectivity {
				return fail(fmt.Errorf("verification FAILED: claimed cut %d/connectivity %d, oracle recomputed %d/%d",
					res.CutNets, res.Connectivity, rep.CutNets, rep.Connectivity))
			}
			fmt.Fprintf(stdout, "verified: %d cut nets, connectivity %d, part weights %v\n",
				rep.CutNets, rep.Connectivity, rep.PartWeights)
		}
		if *verbose {
			for v := 0; v < h.NumVertices(); v++ {
				fmt.Fprintf(stdout, "  %s %d\n", h.VertexName(v), res.Part[v])
			}
		}
		return 0
	}

	var p *fasthgp.Bipartition
	var es fasthgp.EngineStats
	start := time.Now()
	switch *algo {
	case "algI":
		opts := fasthgp.Options{Starts: *starts, Threshold: *threshold, Seed: *seed, Parallelism: *parallel, Constraint: constraint}
		switch *completion {
		case "greedy":
			opts.Completion = fasthgp.CompletionGreedy
		case "exact":
			opts.Completion = fasthgp.CompletionExact
		case "weighted":
			opts.Completion = fasthgp.CompletionWeighted
		default:
			return fail(fmt.Errorf("unknown completion %q", *completion))
		}
		switch *objective {
		case "cut":
			opts.Objective = fasthgp.MinCut
		case "quotient":
			opts.Objective = fasthgp.MinQuotient
		default:
			return fail(fmt.Errorf("unknown objective %q", *objective))
		}
		res, err := fasthgp.PartitionCtx(ctx, h, opts)
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Stats.Engine
		fmt.Fprintf(stdout, "algorithm I: G = (%d vertices, %d edges), boundary %d, BFS depth %d, %d distinct endpoint pairs, %d boundary graphs as bitset rows",
			res.Stats.GVertices, res.Stats.GEdges, res.Stats.BoundarySize, res.Stats.BFSDepth, res.Stats.DistinctPairs, res.Stats.BitsetBoundaries)
		if res.Stats.BitsetDual {
			fmt.Fprint(stdout, " [dual as bitset rows]")
		}
		if res.Stats.Disconnected {
			fmt.Fprint(stdout, " [disconnected: zero-cut packing]")
		}
		fmt.Fprintln(stdout)
	case "multilevel":
		res, err := fasthgp.MultilevelCtx(ctx, h, fasthgp.MultilevelOptions{
			Starts: *starts, Seed: *seed, Parallelism: *parallel,
			Constraint: constraint, DisableFlow: !*vcycle})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "multilevel: %d levels, coarsest %d vertices\n", res.Levels, res.CoarsestVertices)
		if *vcycle {
			vc := res.VCycle
			fmt.Fprintf(stdout, "flow refinement: %d/%d rounds accepted, %d corridor vertices, %d flow nodes, %d augmentations, gain %d\n",
				vc.FlowAccepted, vc.FlowRounds, vc.CorridorVertices, vc.FlowNodes, vc.FlowAugmentations, vc.FlowGain)
		}
	case "kl":
		res, err := fasthgp.KLCtx(ctx, h, fasthgp.KLOptions{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "kernighan-lin: %d passes\n", res.Passes)
	case "fm":
		res, err := fasthgp.FMCtx(ctx, h, fasthgp.FMOptions{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "fiduccia-mattheyses: %d passes\n", res.Passes)
	case "spectral":
		res, err := fasthgp.SpectralCtx(ctx, h, fasthgp.SpectralOptions{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "spectral: %d power iterations\n", res.Iterations)
	case "flow":
		res, err := fasthgp.FlowCtx(ctx, h, fasthgp.FlowOptions{SeedPairs: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "flow-based: min s-t net cut value %d over seed pairs\n", res.FlowValue)
	case "sa":
		res, err := fasthgp.AnnealCtx(ctx, h, fasthgp.AnnealOptions{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
		fmt.Fprintf(stdout, "simulated annealing: %d temperatures, %d accepted moves\n", res.Temperatures, res.Accepted)
	case "random":
		res, err := runRegistered(ctx, "random", h, fasthgp.AlgoConfig{Starts: *starts, Seed: *seed, Parallelism: *parallel, Constraint: constraint})
		if err != nil {
			return fail(err)
		}
		p, es = res.Partition, res.Engine
	default:
		return fail(fmt.Errorf("unknown algorithm %q", *algo))
	}
	elapsed := time.Since(start)

	cut := fasthgp.CutSize(h, p)
	reportBipartition(stdout, h, p, cut, elapsed)
	if *stats {
		printStats(stdout, es)
	}
	if *doVerify {
		if code := verifyBipartition(stdout, stderr, h, p, cut, constraint); code != 0 {
			return code
		}
	}
	if *verbose {
		printSides(stdout, h, p)
	}
	return 0
}

// runCheckpointed runs one registry algorithm with the crash-safe
// journal: completed starts are fsynced as the run progresses, and a
// -resume run continues from the recovered progress while returning the
// same cut an uninterrupted run would.
func runCheckpointed(ctx context.Context, h *fasthgp.Hypergraph, algo, path string, resume bool,
	cfg fasthgp.AlgoConfig, stats, doVerify, verbose bool, stdout, stderr io.Writer) int {
	constraint := cfg.Constraint
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpart:", err)
		return 1
	}
	start := time.Now()
	res, err := fasthgp.PartitionCheckpointed(ctx, h, algo, cfg, path, resume)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "checkpoint: journal %s, resumed %d of %d starts\n",
		path, res.Engine.StartsResumed, res.Engine.StartsRun)
	if res.Engine.CheckpointErr != nil {
		// Journaling degraded mid-run; the result itself is unaffected,
		// but a crash from here on resumes from the last good record.
		fmt.Fprintln(stderr, "hgpart: warning: checkpoint journaling degraded:", res.Engine.CheckpointErr)
	}
	reportBipartition(stdout, h, res.Partition, res.CutSize, elapsed)
	if stats {
		printStats(stdout, res.Engine)
	}
	if doVerify {
		if code := verifyBipartition(stdout, stderr, h, res.Partition, res.CutSize, constraint); code != 0 {
			return code
		}
	}
	if verbose {
		printSides(stdout, h, res.Partition)
	}
	return 0
}

// runPortfolio executes the deadline-aware fallback chain and reports
// the winning tier.
func runPortfolio(ctx context.Context, h *fasthgp.Hypergraph, algo, fallback string, budget time.Duration,
	starts int, seed int64, parallel int, constraint fasthgp.Constraint, doVerify, verbose bool, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpart:", err)
		return 1
	}
	chain := []string{algo}
	for _, name := range strings.Split(fallback, ",") {
		if name = strings.TrimSpace(name); name != "" {
			chain = append(chain, name)
		}
	}
	fmt.Fprintf(stdout, "portfolio: chain %s, budget %s\n", strings.Join(chain, " -> "), budget)
	start := time.Now()
	res, err := fasthgp.PartitionPortfolio(ctx, h,
		fasthgp.WithChain(chain...), fasthgp.WithBudget(budget),
		fasthgp.WithStarts(starts), fasthgp.WithSeed(seed), fasthgp.WithParallelism(parallel),
		fasthgp.WithConstraint(constraint))
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	for i, tr := range res.Tiers {
		status := "ok"
		switch {
		case tr.Err != nil && tr.Partial:
			status = fmt.Sprintf("partial (%v)", tr.Err)
		case tr.Err != nil:
			status = fmt.Sprintf("failed (%v)", tr.Err)
		}
		fmt.Fprintf(stdout, "tier %d (%s): %d attempt(s), %s, %s\n", i, tr.Name, tr.Attempts, tr.Wall.Round(time.Microsecond), status)
	}
	degraded := ""
	if res.Degraded {
		degraded = " [degraded]"
	}
	fmt.Fprintf(stdout, "winner: tier %d (%s)%s\n", res.Tier, res.TierName, degraded)
	reportBipartition(stdout, h, res.Partition, res.CutSize, elapsed)
	if doVerify {
		if code := verifyBipartition(stdout, stderr, h, res.Partition, res.CutSize, constraint); code != 0 {
			return code
		}
	}
	if verbose {
		printSides(stdout, h, res.Partition)
	}
	return 0
}

// reportBipartition prints the standard cut/balance summary.
func reportBipartition(stdout io.Writer, h *fasthgp.Hypergraph, p *fasthgp.Bipartition, cut int, elapsed time.Duration) {
	l, r, _ := p.Counts()
	fmt.Fprintf(stdout, "cutsize: %d (of %d nets)\n", cut, h.NumEdges())
	fmt.Fprintf(stdout, "sides: %d | %d modules, weight imbalance %d of %d\n",
		l, r, fasthgp.Imbalance(h, p), h.TotalVertexWeight())
	fmt.Fprintf(stdout, "quotient cut: %.4f\n", fasthgp.QuotientCut(h, p))
	fmt.Fprintf(stdout, "time: %s\n", elapsed.Round(time.Microsecond))
}

// verifyBipartition runs the oracle — including the balance contract
// when one is in force — and reports; non-zero on violation.
func verifyBipartition(stdout, stderr io.Writer, h *fasthgp.Hypergraph, p *fasthgp.Bipartition, cut int, c fasthgp.Constraint) int {
	rep, err := fasthgp.VerifyCut(h, p, cut)
	if err == nil && !c.IsZero() {
		_, err = fasthgp.VerifyConstraint(h, p, c)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hgpart:", fmt.Errorf("verification FAILED: %w", err))
		return 1
	}
	fmt.Fprintf(stdout, "verified: cut %d (weighted %d), sides %d/%d, weights %d/%d",
		rep.CutSize, rep.WeightedCut, rep.Left, rep.Right, rep.LeftWeight, rep.RightWeight)
	if !c.IsZero() {
		fmt.Fprint(stdout, " [constraint satisfied]")
	}
	fmt.Fprintln(stdout)
	return 0
}

// printSides lists every module's side.
func printSides(stdout io.Writer, h *fasthgp.Hypergraph, p *fasthgp.Bipartition) {
	for v := 0; v < h.NumVertices(); v++ {
		side := "L"
		if p.Side(v) == partition.Right {
			side = "R"
		}
		fmt.Fprintf(stdout, "  %s %s\n", h.VertexName(v), side)
	}
}

// runRegistered invokes an algorithm from the Algorithms registry by
// name.
func runRegistered(ctx context.Context, name string, h *fasthgp.Hypergraph, cfg fasthgp.AlgoConfig) (*fasthgp.AlgoResult, error) {
	for _, a := range fasthgp.Algorithms() {
		if a.Name == name {
			return a.Run(ctx, h, cfg)
		}
	}
	return nil, fmt.Errorf("algorithm %q not in registry", name)
}

// printStats reports the engine's account of a multi-start run.
func printStats(stdout io.Writer, es fasthgp.EngineStats) {
	fmt.Fprintf(stdout, "engine: %d/%d starts, best at start %d, %d workers, wall %s, cpu %s",
		es.StartsRun, es.StartsRequested, es.BestStart, es.Parallelism,
		es.Wall.Round(time.Microsecond), es.CPU.Round(time.Microsecond))
	if es.Cancelled {
		fmt.Fprint(stdout, " [cancelled: best-so-far]")
	}
	if es.StartsResumed > 0 {
		fmt.Fprintf(stdout, " [%d start(s) resumed from the checkpoint journal]", es.StartsResumed)
	}
	if es.StartsFailed > 0 {
		fmt.Fprintf(stdout, " [%d start(s) panicked and were skipped]", es.StartsFailed)
	}
	fmt.Fprintln(stdout)
	if len(es.Cuts) > 0 {
		fmt.Fprintf(stdout, "engine: per-start cuts: %v\n", es.Cuts)
	}
}

// Command hgbench is the repository's benchmark: one command that runs
// a workload end to end — netlist bytes in, verified assignment out —
// and prints every metric by name with its unit. Untraced runs report
// the end-to-end metrics; traced runs (-trace 1) replay each layer
// through its exported entry points and report per-layer metrics. Every
// answer is checked by the verify oracle; any failure makes the exit
// status non-zero. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run from the repository root (see README.md):
//
//	bash hgbench/run.sh --workload paper-flat --seed 1 --seconds 20 --trace 0
//	bash hgbench/run.sh --seed 1    # all four workloads, one process each
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"fasthgp/internal/partition"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // traced runs write their spans here when set
	repo     string // repository root
	build    string // directory for built daemons and fleet WALs
}

// setupReps is how many times a run sets up; setup_s is the median.
// Each set-up takes tens of milliseconds, and on a shared 2-vCPU VM
// bursts of interference last about as long, so the median needs a
// second or two of repetitions to stay put.
const setupReps = 51

// workload is one named benchmark workload.
type workload interface {
	run(o options, out io.Writer) (result, error)
}

// workloadNames lists the workloads in the order a full run executes
// them.
var workloadNames = []string{"paper-flat", "paper-balanced", "vcycle-powerlaw", "service-fleet"}

// workloadByName builds the named workload at its benchmark size.
func workloadByName(name string) (workload, bool) {
	switch name {
	case "paper-flat":
		// 8 families × 16 engine seeds: one cycle is ~3 s, so a run
		// holds several.
		return &computeWorkload{name: name, instances: table2Instances(), seeds: 16}, true
	case "paper-balanced":
		// The same solves under ε = 0.1, where rebalance dominates on
		// IC2: one cycle of 12 engine seeds is ~15 s.
		return &computeWorkload{name: name, instances: table2Instances(), seeds: 12,
			constraint: partition.Constraint{Epsilon: 0.1}}, true
	case "vcycle-powerlaw":
		// 3 instances × 4 engine seeds: one cycle is ~18 s.
		return &computeWorkload{name: name, instances: powerLawInstances(4000, 6000, 11, 12, 13), seeds: 4, vcycle: true}, true
	case "service-fleet":
		// Even requests hit the cache, odd ones miss it.
		return &fleetWorkload{name: name, corpus: "testdata/corpus", workers: 2, clients: 2, hot: 16, missEvery: 2, starts: 2}, true
	}
	return nil, false
}

func main() {
	if os.Getenv(echoEnv) == "1" {
		os.Exit(serveEcho(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the solve order and of the cache-missing requests")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write the spans as JSON to this file")
	fs.StringVar(&o.repo, "repo", ".", "repository root")
	fs.StringVar(&o.build, "build", ".bench_build", "directory for built daemons and fleet WALs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "hgbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "hgbench: -seconds must be at least 1")
		return 2
	}
	o.trace = trace == 1
	if o.workload == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "hgbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if _, err := os.Stat(o.repo + "/testdata/corpus"); err != nil {
		fmt.Fprintf(stderr, "hgbench: %s is not the repository root: %v\n", o.repo, err)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	fmt.Fprintf(stdout, "hgbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d\n",
		o.workload, o.seed, o.seconds, trace, procs(), runtime.NumCPU())
	res, err := w.run(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hgbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so peak RSS and
// GC state belong to one workload, and relays their output. The last
// line is one JSON object mapping workload to result.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	all := make(map[string]json.RawMessage)
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "hgbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "hgbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "hgbench: %s: %v\n", name, err)
			code = 1
		}
		if json.Valid([]byte(last)) {
			all[name] = json.RawMessage(last)
		} else if last != "" {
			fmt.Fprintln(stdout, last)
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(line))
	return code
}

// finish assembles the result, prints the metrics, and returns it.
func finish(out io.Writer, name string, values map[string]float64, notes map[string]string,
	defs []metricDef, zeroMissing bool, attempted, failed int) (result, error) {
	m, err := report(values, defs, zeroMissing)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s: %d attempted, %d failed (failed_ratio %s)\n", name, attempted, failed,
		strconv.FormatFloat(float64(failed)/float64(max(attempted, 1)), 'g', 4, 64))
	printMetrics(out, defs, m, notes)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// procs is the GOMAXPROCS of every benchmark process: min(2, nproc).
func procs() int { return min(2, runtime.NumCPU()) }

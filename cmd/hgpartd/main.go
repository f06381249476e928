// Command hgpartd serves hypergraph partitioning over HTTP, built on
// the resilience portfolio: every request runs a deadline-aware
// fallback chain, every candidate is certified by the invariant
// oracle, and a panic anywhere in a request is converted into a 500
// for that request alone.
//
// Endpoints:
//
//	POST /partition   netlist body -> JSON cut (with a job_id)
//	                  query: format=nets|hgr, chain=fm,core,
//	                  starts=N, seed=N, budget=500ms
//	GET  /jobs/{id}   one job's state, surviving daemon restarts
//	GET  /healthz     liveness probe; body reports ok/degraded with
//	                  queue depth, breaker states, WAL record age
//	GET  /stats       atomic request counters
//
// Overload and abuse map to status codes, not failures: a full work
// queue answers 429 with Retry-After, a body over -max-body answers
// 413, a malformed netlist answers 400, and with -max-heap set the
// daemon sheds new work with a retryable 503 while the live heap sits
// above the watermark. SIGTERM/SIGINT starts a drain: new jobs are
// refused with 503 + Retry-After while in-flight requests finish, for
// up to -drain-timeout, then the process exits 0.
//
// With -coordinator the daemon joins an hgpartcoord fleet: it
// registers itself (as -worker-id, advertising -advertise), heartbeats
// periodically, re-registers automatically if the coordinator restarts
// or ejects it for silence, and deregisters at the start of drain. A
// coordinator-propagated X-Request-Deadline header (unix milliseconds)
// caps the per-request budget below -req-timeout.
//
// With -wal the daemon journals every accepted request to a crash-safe
// write-ahead log before running it and journals the outcome after; at
// boot the WAL is replayed, jobs the previous process accepted but
// never finished are re-enqueued, and GET /jobs/{id} answers for all
// of them. A kill -9 therefore loses no accepted work.
//
// Tiers that keep failing trip a per-tier circuit breaker
// (-breaker-threshold consecutive failures): the tier is skipped —
// and its budget share rolls to the tiers that run — until
// -breaker-cooldown admits a single probe request.
//
// Results are cached (-cache entries, LRU; 0 disables): a request
// whose netlist fingerprint and effective options match an earlier
// non-degraded success is answered from memory with the original body.
// Hit/miss counters appear on /healthz and /stats. With -pprof ADDR
// the daemon additionally serves net/http/pprof on a separate listener
// (off by default).
//
// Example:
//
//	hgpartd -addr :8080 -queue 4 -wal /var/lib/hgpartd/wal -max-heap 1073741824 &
//	curl -s -X POST --data-binary @netlist.nets \
//	    'localhost:8080/partition?chain=multilevel,fm,core&budget=2s'
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"fasthgp/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it blocks until SIGTERM/SIGINT or
// a listener failure, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgpartd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the actual address is printed)")
		maxBody      = fs.Int64("max-body", 8<<20, "max request body bytes; beyond it the request is 413")
		queue        = fs.Int("queue", 4, "max concurrent partition requests; beyond it 429")
		reqTimeout   = fs.Duration("req-timeout", 30*time.Second, "per-request wall budget")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight requests on SIGTERM")
		chain        = fs.String("chain", "", "default fallback chain, comma-separated (empty = multilevel,fm,algo1)")
		starts       = fs.Int("starts", 8, "default multi-start count per tier")
		seed         = fs.Int64("seed", 1, "default random seed")
		budget       = fs.Duration("budget", 0, "default portfolio budget (0 = -req-timeout)")
		parallel     = fs.Int("parallel", 0, "engine workers per request (0 = GOMAXPROCS)")
		walPath      = fs.String("wal", "", "write-ahead log path: accepted requests are journaled and replayed after a crash (empty = off)")
		scrubEvery   = fs.Duration("scrub-interval", time.Minute, "WAL integrity-scrub cadence; rot degrades /healthz (0 = off)")
		maxHeap      = fs.Uint64("max-heap", 0, "live-heap watermark in bytes; above it new requests are shed with 503 (0 = off)")
		brkThresh    = fs.Int("breaker-threshold", 3, "consecutive failures tripping a tier's circuit breaker (0 = breakers off)")
		brkCooldown  = fs.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker skips its tier before probing")
		cacheSize    = fs.Int("cache", 128, "result-cache entries, keyed by netlist fingerprint + options (0 = off)")
		pprofAddr    = fs.String("pprof", "", "listen address for net/http/pprof, e.g. 127.0.0.1:6060 (empty = off)")
		faults       = fs.String("faultinject", "", "fault-injection spec, e.g. 'latency@hgpartd.request:0=2s' (also read from FASTHGP_FAULTS)")
		coordinator  = fs.String("coordinator", "", "hgpartcoord base URL to register with, e.g. http://127.0.0.1:7070 (empty = standalone)")
		workerID     = fs.String("worker-id", "", "fleet worker id (default hgpartd-<pid>)")
		advertise    = fs.String("advertise", "", "address the coordinator should forward to (default the actual listen address)")
		hbInterval   = fs.Duration("heartbeat-interval", 0, "heartbeat period when registered (0 = coordinator-provided)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpartd:", err)
		return 1
	}
	disarm, err := serve.ArmFaults("hgpartd", *faults, stdout)
	if err != nil {
		return fail(err)
	}
	defer disarm()

	cfg := serverConfig{
		maxBody:          *maxBody,
		queue:            *queue,
		reqTimeout:       *reqTimeout,
		starts:           *starts,
		seed:             *seed,
		budget:           *budget,
		parallelism:      *parallel,
		drainTimeout:     *drainTimeout,
		maxHeap:          *maxHeap,
		breakerThreshold: *brkThresh,
		breakerCooldown:  *brkCooldown,
		cacheSize:        *cacheSize,
	}
	if *chain != "" {
		cfg.chain = strings.Split(*chain, ",")
	}
	s := newServer(cfg, stdout)

	// Boot recovery: replay the WAL, surface every journaled job on
	// /jobs/{id}, and re-enqueue whatever the previous process accepted
	// but never finished.
	if *walPath != "" {
		pending, err := s.OpenWAL(*walPath)
		if err != nil {
			return fail(err)
		}
		defer s.WAL.Close()
		s.requeue(pending)
	}

	// Profiling endpoint, off by default and on its own listener + mux
	// so the serving port never exposes /debug/pprof.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(stdout, "hgpartd: pprof listening on %s\n", pln.Addr())
		go func() { _ = http.Serve(pln, pmux) }()
	}

	ln, err := s.Listen(*addr)
	if err != nil {
		return fail(err)
	}

	// Fleet membership: register with the coordinator once the real
	// listen address is known, so -addr :0 still advertises correctly.
	var fc *fleetClient
	if *coordinator != "" {
		id := *workerID
		if id == "" {
			id = fmt.Sprintf("hgpartd-%d", os.Getpid())
		}
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		fc = newFleetClient(strings.TrimRight(*coordinator, "/"), id, adv, *hbInterval, stdout)
		fc.start()
	}

	// Drain order matters: the 503-with-Retry-After gate flips first
	// (new jobs bounce immediately), then the worker deregisters from
	// the fleet so the coordinator routes away, then the in-flight
	// requests are waited out.
	deregister := func() {
		if fc != nil {
			fc.stop()
		}
	}
	if err := s.Serve(ln, s.handler(), *scrubEvery, deregister); err != nil {
		return fail(err)
	}
	return 0
}

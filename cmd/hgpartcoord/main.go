// Command hgpartcoord fronts a fleet of hgpartd workers: it routes
// partition requests over a consistent-hash ring keyed by netlist
// fingerprint (the same fingerprint the workers key their result
// caches by, so repeat requests enjoy cache affinity), tracks worker
// liveness by heartbeat with breaker-style ejection, retries failed
// forwards with jittered backoff on the next ring candidate, and —
// with -wal — journals every accepted job so that neither a worker
// SIGKILL nor a coordinator crash drops accepted work.
//
// Endpoints:
//
//	POST /partition   netlist body -> JSON cut, forwarded to a worker
//	                  (same query surface as hgpartd; the response
//	                  carries the coordinator's job_id plus the worker)
//	POST /register    worker announce: {"id","addr"} ->
//	                  {"heartbeat_interval_ms"}
//	POST /heartbeat   {"id"} -> 204, or 404 when unknown (re-register)
//	POST /deregister  {"id"} -> 204; graceful worker drain
//	GET  /jobs/{id}   one job's state, surviving coordinator restarts
//	GET  /healthz     fleet view: worker liveness states, breakers,
//	                  ring membership, handoff counters
//	GET  /stats       atomic request counters
//
// Liveness is a three-state machine per worker driven by heartbeat
// silence: active -> suspect after -heartbeat-ttl, suspect -> ejected
// after -heartbeat-ttl x -eject-after. An ejected worker leaves the
// ring and its accepted-but-unfinished detached jobs are re-enqueued
// onto survivors (at-least-once, deduplicated by netlist fingerprint +
// options); its next heartbeat or registration rejoins it with no
// manual intervention. Per-worker circuit breakers (reusing the
// portfolio's breaker machinery) independently skip workers that keep
// failing requests until a cooldown probe succeeds.
//
// Example:
//
//	hgpartcoord -addr :7070 -wal /var/lib/hgpartcoord/wal &
//	hgpartd -addr :8081 -coordinator http://localhost:7070 -worker-id w1 &
//	hgpartd -addr :8082 -coordinator http://localhost:7070 -worker-id w2 &
//	curl -s -X POST --data-binary @netlist.nets localhost:7070/partition
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fasthgp/internal/fleet"
	"fasthgp/internal/resilience"
	"fasthgp/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it blocks until SIGTERM/SIGINT or
// a listener failure, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgpartcoord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":7070", "listen address (use :0 for an ephemeral port; the actual address is printed)")
		maxBody      = fs.Int64("max-body", 8<<20, "max request body bytes; beyond it 413")
		reqTimeout   = fs.Duration("req-timeout", 30*time.Second, "per-request wall budget, propagated to workers via X-Request-Deadline")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight requests on SIGTERM")
		heartbeatTTL = fs.Duration("heartbeat-ttl", 3*time.Second, "heartbeat silence moving a worker active -> suspect")
		ejectAfter   = fs.Int("eject-after", 3, "TTLs of silence before a worker is ejected from the ring")
		replicas     = fs.Int("replicas", fleet.DefaultReplicas, "ring virtual nodes per worker")
		retries      = fs.Int("retries", 8, "max forward attempts per request across ring candidates")
		retryBase    = fs.Duration("retry-base", 25*time.Millisecond, "first retry's nominal backoff")
		retryCap     = fs.Duration("retry-cap", time.Second, "backoff growth cap")
		retrySeed    = fs.Int64("retry-seed", 1, "deterministic backoff-jitter seed")
		brkThresh    = fs.Int("breaker-threshold", 3, "consecutive failures tripping a worker's circuit breaker")
		brkCooldown  = fs.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a probe")
		walPath      = fs.String("wal", "", "write-ahead log path: accepted jobs are journaled and re-enqueued after a crash (empty = off)")
		hedgeDelay   = fs.Duration("hedge-delay", 0, "fire a duplicate to the failover worker when a request is still unanswered after this long; first verified answer wins (0 = off)")
		qThreshold   = fs.Int("quarantine-threshold", 3, "oracle-invalid answers within the window that quarantine a worker")
		qWindow      = fs.Duration("quarantine-window", 30*time.Second, "sliding window for counting invalid answers")
		qReadmit     = fs.Int("quarantine-readmit", 3, "consecutive verified probe answers that readmit a quarantined worker")
		qProbeEvery  = fs.Duration("quarantine-probe-interval", time.Second, "minimum spacing between readmission probes to one worker")
		scrubEvery   = fs.Duration("scrub-interval", time.Minute, "WAL integrity-scrub cadence (0 = off)")
		faults       = fs.String("faultinject", "", "fault-injection spec, e.g. 'drop@fleet.forward:0' (also read from FASTHGP_FAULTS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpartcoord:", err)
		return 1
	}
	disarm, err := serve.ArmFaults("hgpartcoord", *faults, stdout)
	if err != nil {
		return fail(err)
	}
	defer disarm()

	cfg := coordConfig{
		maxBody:      *maxBody,
		reqTimeout:   *reqTimeout,
		retries:      *retries,
		backoff:      fleet.BackoffConfig{Base: *retryBase, Cap: *retryCap, Seed: *retrySeed},
		heartbeatTTL: *heartbeatTTL,
		replicas:     *replicas,
		drainTimeout: *drainTimeout,
		hedgeDelay:   *hedgeDelay,
	}
	c := newCoord(cfg, fleet.RegistryConfig{
		HeartbeatTTL: *heartbeatTTL,
		EjectAfter:   *ejectAfter,
		Breakers:     resilience.BreakerConfig{Threshold: *brkThresh, Cooldown: *brkCooldown},
		Quarantine: fleet.QuarantineConfig{
			Threshold:     *qThreshold,
			Window:        *qWindow,
			ReadmitAfter:  *qReadmit,
			ProbeInterval: *qProbeEvery,
		},
	}, stdout)

	// Boot recovery: replay the WAL and re-enqueue whatever the previous
	// process accepted but never saw finish. The detached runners wait
	// (with backoff) for workers to register, so boot order is free.
	if *walPath != "" {
		pending, err := c.OpenWAL(*walPath)
		if err != nil {
			return fail(err)
		}
		defer c.WAL.Close()
		c.requeue(pending)
	}

	ln, err := c.Listen(*addr)
	if err != nil {
		return fail(err)
	}
	// The ejection sweep: interval bounds detection latency only, never
	// correctness, so half a TTL keeps /healthz timely without load.
	sweep := serve.Ticker{Every: *heartbeatTTL / 2, Run: c.sweep}
	if err := c.Serve(ln, c.handler(), *scrubEvery, nil, sweep); err != nil {
		return fail(err)
	}
	return 0
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// coordConfig is the coordinator's tunable surface, set by flags.
type coordConfig struct {
	maxBody      int64         // request-body cap; beyond it 413
	reqTimeout   time.Duration // per-request wall cap (propagated to workers)
	retries      int           // max forward attempts per request
	backoff      fleet.BackoffConfig
	heartbeatTTL time.Duration // silence moving a worker active -> suspect
	replicas     int           // ring virtual nodes per worker
	drainTimeout time.Duration
	hedgeDelay   time.Duration // delayed-duplicate threshold (0 = hedging off)
}

// coord is the coordinator state: the shared HTTP edge (job table,
// optional WAL, drain), the worker registry (liveness + breakers), the
// consistent-hash ring, and the handoff ledger.
type coord struct {
	*serve.Edge
	cfg      coordConfig
	registry *fleet.Registry
	ring     *fleet.Ring
	handoff  *fleet.HandoffQueue
	client   *http.Client

	fwdCounter atomic.Int64 // fault-injection index for fleet.forward

	flightMu sync.Mutex
	flights  map[fleet.JobKey]*flight // live single-flight computations

	probeMat atomic.Pointer[probeMaterial] // last verified job, replayed as quarantine probe

	requests    atomic.Int64
	ok200       atomic.Int64
	failed      atomic.Int64
	rerouted    atomic.Int64 // forwards answered by a non-primary worker
	verified    atomic.Int64 // worker answers that passed the oracle
	invalid     atomic.Int64 // worker answers the oracle rejected (never delivered)
	quarantines atomic.Int64 // quarantine transitions
	probes      atomic.Int64 // readmission probes sent
	readmitted  atomic.Int64 // quarantine releases
	hedges      atomic.Int64 // delayed duplicates fired
	hedgeWins   atomic.Int64 // races won by the hedge
	collapsed   atomic.Int64 // requests answered by another flight's computation
}

func newCoord(cfg coordConfig, registryCfg fleet.RegistryConfig, stdout io.Writer) *coord {
	if cfg.retries < 1 {
		cfg.retries = 1
	}
	return &coord{
		Edge:     serve.NewEdge("hgpartcoord", stdout, cfg.maxBody, cfg.drainTimeout),
		cfg:      cfg,
		registry: fleet.NewRegistry(registryCfg),
		ring:     fleet.NewRing(cfg.replicas),
		handoff:  fleet.NewHandoffQueue(0),
		flights:  make(map[fleet.JobKey]*flight),
		client:   &http.Client{}, // per-request deadlines come from ctx
	}
}

// requeue re-enqueues WAL-recovered pending jobs as detached handoffs
// (their clients died with the old process). Each runs in its own
// goroutine that waits (with backoff) for workers to register —
// recovered work is never dropped, only delayed.
func (c *coord) requeue(pending []serve.Record) {
	for _, rec := range pending {
		c.Jobs.Restore(fleet.JobInfo{ID: rec.JobID, Status: "requeued", Requeued: true})
		c.resume(fleet.Job{ID: rec.JobID, Format: rec.Format, Query: rec.Query, Netlist: rec.Netlist})
	}
}

// resume admits a detached job — replayed from the WAL, or taken back
// from a worker — and drives it to completion in the background. Its
// key is decoded again from its request, so it has the current
// canonical form whatever journaled the request. The at-least-once
// duplicate of a job that already completed is answered from memory
// without running.
func (c *coord) resume(job fleet.Job) {
	job.Worker, job.Detached = "", true
	req, err := requestForJob(job)
	if err != nil {
		c.fail(job.ID, err.Error())
		return
	}
	job.Key = req.Key()
	if prev, dup := c.handoff.Admit(job); dup {
		c.finishFromMemory(job.ID, prev)
		return
	}
	go c.runDetached(job, &req.Contract)
}

// fail marks a job permanently failed: it leaves the handoff ledger,
// and the job table and the WAL record why.
func (c *coord) fail(jobID, msg string) {
	c.handoff.Fail(jobID)
	c.Jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", msg })
	c.WAL.Append(serve.Record{Type: "failed", JobID: jobID, Error: msg})
}

// finishFromMemory marks a deduplicated job done with the remembered
// outcome of its key's first completion.
func (c *coord) finishFromMemory(jobID string, d fleet.Done) {
	c.Jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.Worker = "done", d.Cut, d.TierName, d.Degraded, d.Worker
	})
	c.WAL.Append(serve.Record{Type: "done", JobID: jobID,
		Cut: d.Cut, TierName: d.TierName, Worker: d.Worker, Degraded: d.Degraded})
}

// sweep advances the liveness state machine once: newly ejected
// workers leave the ring and their detached handoff jobs are reclaimed
// and re-forwarded to survivors. It also fires readmission probes at
// quarantined workers (integrity.go).
func (c *coord) sweep() {
	defer c.probeQuarantined()
	for _, id := range c.registry.Sweep() {
		c.ring.Remove(id)
		reclaimed := c.handoff.Reclaim(id)
		fmt.Fprintf(c.Stdout, "hgpartcoord: ejected %s (heartbeat silence), reclaiming %d handoff job(s)\n", id, len(reclaimed))
		for _, job := range reclaimed {
			c.Jobs.Update(job.ID, func(j *fleet.JobInfo) { j.Status, j.Requeued = "requeued", true })
			c.resume(job)
		}
	}
}

// handler builds the route table behind a panic-recovery middleware.
func (c *coord) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", c.handlePartition)
	mux.HandleFunc("/register", c.handleRegister)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/deregister", c.handleDeregister)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/jobs/", c.HandleJob)
	return c.Recover(mux)
}

// workerMsg is the body of /register, /heartbeat and /deregister.
type workerMsg struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

func (c *coord) handleRegister(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !c.decodeWorkerMsg(w, r, &msg) {
		return
	}
	if msg.Addr == "" {
		c.WriteError(w, http.StatusBadRequest, "register needs an addr")
		return
	}
	rejoined := c.registry.Upsert(msg.ID, msg.Addr)
	c.ring.Add(msg.ID)
	if rejoined {
		fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s rejoined via register\n", msg.ID)
	} else {
		fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s registered at %s\n", msg.ID, msg.Addr)
	}
	c.WriteJSON(w, http.StatusOK, map[string]any{
		"heartbeat_interval_ms": (c.cfg.heartbeatTTL / 3).Milliseconds(),
	})
}

func (c *coord) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !c.decodeWorkerMsg(w, r, &msg) {
		return
	}
	known, rejoined := c.registry.Heartbeat(msg.ID)
	if !known {
		c.WriteError(w, http.StatusNotFound, "unknown worker; re-register")
		return
	}
	if rejoined {
		c.ring.Add(msg.ID)
		fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s rejoined via heartbeat\n", msg.ID)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *coord) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !c.decodeWorkerMsg(w, r, &msg) {
		return
	}
	c.registry.Remove(msg.ID)
	c.ring.Remove(msg.ID)
	// A draining worker rejects new work but finishes what it holds, so
	// its detached jobs are reclaimed exactly like an ejection's.
	for _, job := range c.handoff.Reclaim(msg.ID) {
		c.resume(job)
	}
	fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s deregistered\n", msg.ID)
	w.WriteHeader(http.StatusNoContent)
}

func (c *coord) decodeWorkerMsg(w http.ResponseWriter, r *http.Request, msg *workerMsg) bool {
	if r.Method != http.MethodPost {
		c.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(msg); err != nil || msg.ID == "" {
		c.WriteError(w, http.StatusBadRequest, "want JSON body with a worker id")
		return false
	}
	return true
}

func (c *coord) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		c.WriteError(w, http.StatusMethodNotAllowed, "POST a netlist body to /partition")
		return
	}
	c.requests.Add(1)
	if c.RejectDraining(w) {
		return
	}
	raw, ok := c.ReadBody(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	// The coordinator decodes the request for two jobs: the routing and
	// dedup key, and the contract every worker answer is judged against
	// before delivery. A request any worker would refuse — garbage, or
	// a malformed option — is a 400 here, before it has a job id or
	// costs a worker anything; the raw bytes are forwarded verbatim.
	req, err := serve.ParseRequest(format, bytes.NewReader(raw), r.URL.Query(), nil)
	if err != nil {
		c.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ct, key := &req.Contract, req.Key()

	timeout, expired := serve.RequestTimeout(r, c.cfg.reqTimeout)
	if expired {
		c.WriteError(w, http.StatusGatewayTimeout, "propagated deadline already expired")
		return
	}
	deadline := time.Now().Add(timeout)

	// Accepted: job id, WAL record, handoff ledger entry (attached: this
	// handler owns the retries). From here on the job is never dropped —
	// it completes, fails permanently, or survives in the WAL.
	jobID := c.Jobs.Create()
	job := fleet.Job{ID: jobID, Key: key, Format: format, Query: r.URL.RawQuery, Netlist: string(raw)}
	c.WAL.Append(serve.Record{Type: "accepted", JobID: jobID,
		Format: format, Query: r.URL.RawQuery, Netlist: string(raw)})
	c.handoff.Admit(job)

	resp, worker, ferr := c.dispatch(r.Context(), job, ct, deadline)
	if ferr != nil {
		if r.Context().Err() != nil {
			// The client is gone mid-retry: leave the job detached so
			// ejection reclaim (or the next boot's WAL replay) finishes it.
			c.handoff.Detach(jobID)
			c.Jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status = "requeued" })
			c.WriteError(w, http.StatusServiceUnavailable, "client canceled mid-forward; job remains queued")
			return
		}
		var perm *permanentError
		if errors.As(ferr, &perm) {
			// The worker judged the request itself bad: proxy its answer
			// and forget the job (a later identical request runs afresh).
			c.fail(jobID, perm.body)
			writeRaw(w, perm.status, perm.body)
			return
		}
		c.failed.Add(1)
		c.fail(jobID, ferr.Error())
		c.WriteError(w, http.StatusBadGateway, fmt.Sprintf("all forwards failed: %v", ferr))
		return
	}

	c.handoff.Complete(jobID, fleet.Done{Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded})
	c.Jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", resp.Cut, resp.TierName, resp.Degraded, resp.WallMS, worker
	})
	c.WAL.Append(serve.Record{Type: "done", JobID: jobID,
		Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded, WallMS: resp.WallMS})
	c.keepProbeMaterial(job, ct)

	resp.JobID = jobID // the coordinator's id, not the worker's
	resp.Worker = worker
	c.ok200.Add(1)
	c.WriteJSON(w, http.StatusOK, resp)
}

// runDetached drives one detached job (WAL-recovered or reclaimed from
// a dead worker) to completion: forward with retries, and if the whole
// fleet is unreachable, wait with capped backoff and try again. The
// loop only gives up on a permanent (4xx) outcome or coordinator drain
// — an accepted job is otherwise never dropped.
func (c *coord) runDetached(job fleet.Job, ct *serve.Contract) {
	for round := 0; ; round++ {
		if c.Draining() {
			return // the WAL still holds it; the next boot resumes
		}
		deadline := time.Now().Add(c.cfg.reqTimeout)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp, worker, err := c.forward(ctx, job, ct, deadline)
		cancel()
		if err == nil {
			c.handoff.Complete(job.ID, fleet.Done{Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded})
			c.Jobs.Update(job.ID, func(j *fleet.JobInfo) {
				j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", resp.Cut, resp.TierName, resp.Degraded, resp.WallMS, worker
			})
			c.WAL.Append(serve.Record{Type: "done", JobID: job.ID,
				Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded, WallMS: resp.WallMS})
			c.keepProbeMaterial(job, ct)
			return
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			c.fail(job.ID, perm.body)
			return
		}
		// Transient: every candidate failed or no workers are registered
		// yet. Back off (capped) and go around.
		wait := c.cfg.backoff.Delay(round)
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		time.Sleep(wait)
	}
}

// handleHealthz always answers 200 while the process serves; the body
// carries the fleet view: every worker's liveness state and breaker,
// the ring membership, handoff-queue counters, and degraded reasons
// (ejected workers, open breakers, WAL errors, drain).
func (c *coord) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := c.registry.Snapshot()
	resp := map[string]any{
		"workers": workers,
		"ring":    c.ring.Members(),
		"handoff": c.handoff.Stats(),
	}
	var reasons []string
	for _, wk := range workers {
		if wk.State == "ejected" {
			reasons = append(reasons, "worker ejected: "+wk.ID)
		}
		if wk.Quarantined {
			reasons = append(reasons, "worker quarantined: "+wk.ID)
		}
		if wk.Breaker == "open" {
			reasons = append(reasons, "worker breaker open: "+wk.ID)
		}
	}
	if q := c.registry.QuarantinedIDs(); len(q) > 0 {
		resp["quarantined"] = q
	}
	c.WriteHealth(w, resp, reasons)
}

func (c *coord) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"requests":    c.requests.Load(),
		"ok":          c.ok200.Load(),
		"failed":      c.failed.Load(),
		"rerouted":    c.rerouted.Load(),
		"forwards":    c.fwdCounter.Load(),
		"verified":    c.verified.Load(),
		"invalid":     c.invalid.Load(),
		"quarantines": c.quarantines.Load(),
		"quarantined": c.registry.QuarantinedIDs(),
		"probes":      c.probes.Load(),
		"readmitted":  c.readmitted.Load(),
		"hedges":      c.hedges.Load(),
		"hedge_wins":  c.hedgeWins.Load(),
		"collapsed":   c.collapsed.Load(),
		"handoff":     c.handoff.Stats(),
		"workers":     c.registry.Len(),
	}
	c.WriteStats(w, stats)
}

// writeRaw proxies a worker's error body verbatim.
func writeRaw(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	io.WriteString(w, body)
}

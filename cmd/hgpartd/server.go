package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"fasthgp"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
	"fasthgp/internal/partition"
	"fasthgp/internal/serve"
)

// serverConfig is the daemon's tunable surface, set by flags in main.
type serverConfig struct {
	maxBody          int64         // request-body cap; beyond it the request is 413
	queue            int           // concurrent partition requests; beyond it 429
	reqTimeout       time.Duration // per-request wall cap
	drainTimeout     time.Duration // SIGTERM drain grace
	maxHeap          uint64        // live-heap watermark; above it new work is shed with 503 (0 = off)
	breakerThreshold int           // consecutive tier failures tripping its breaker (0 = breakers off)
	breakerCooldown  time.Duration // open-breaker cooldown before a probe
	cacheSize        int           // result-cache entries (0 = caching off)
	// portfolio holds the run a request's query overrides: chain,
	// starts, seed, budget (0 = reqTimeout) and parallelism, plus the
	// breakers newServer builds (nil = breakers disabled).
	portfolio fasthgp.PortfolioOptions
}

// server carries the daemon state: the shared HTTP edge (job table,
// optional WAL, drain), the admission semaphore, the optional circuit
// breakers (in cfg.portfolio), and the atomic counters behind GET
// /stats.
type server struct {
	*serve.Edge
	cfg   serverConfig
	sem   chan struct{} // admission tokens; full queue = 429
	mem   *memWatcher   // nil = shedding disabled
	cache *resultCache  // nil = result caching disabled

	retrySalt atomic.Uint64 // SplitMix64 counter behind Retry-After jitter

	requests   atomic.Int64 // partition requests admitted or rejected
	inFlight   atomic.Int64
	ok200      atomic.Int64
	bad400     atomic.Int64
	tooLarge   atomic.Int64 // 413
	busy429    atomic.Int64
	shed503    atomic.Int64 // memory-watermark sheds
	failed500  atomic.Int64
	degraded   atomic.Int64 // 200s answered by a fallback tier
	reqCounter atomic.Int64 // fault-injection index for hgpartd.request
}

func newServer(cfg serverConfig, stdout io.Writer) *server {
	if cfg.queue < 1 {
		cfg.queue = 1
	}
	s := &server{
		Edge:  serve.NewEdge("hgpartd", stdout, cfg.maxBody, cfg.drainTimeout),
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.queue),
		mem:   newMemWatcher(cfg.maxHeap),
		cache: newResultCache(cfg.cacheSize),
	}
	s.Count = s.countStatus
	if cfg.breakerThreshold > 0 {
		s.cfg.portfolio.Breakers = fasthgp.NewBreakerSet(fasthgp.BreakerConfig{
			Threshold: cfg.breakerThreshold,
			Cooldown:  cfg.breakerCooldown,
		})
	}
	return s
}

// requeue re-enqueues the WAL's accepted-but-unfinished jobs through
// the normal admission semaphore. Recovered work is never dropped: each
// job blocks for a token instead of answering 429 (there is no client
// to answer). A job interrupted again before finishing simply stays
// pending in the WAL for the next boot.
func (s *server) requeue(pending []serve.Record) {
	for _, p := range pending {
		s.Jobs.Restore(fleet.JobInfo{ID: p.JobID, Status: "requeued", Requeued: true})
		go func(p serve.Record) {
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
			s.inFlight.Add(1)
			defer s.inFlight.Add(-1)
			s.runRecovered(p)
		}(p)
	}
}

// runRecovered re-runs one WAL-replayed job end to end.
func (s *server) runRecovered(p serve.Record) {
	failJob := func(err error) {
		s.Jobs.Update(p.JobID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", err.Error() })
		s.WAL.Append(serve.Record{Type: "failed", JobID: p.JobID, Error: err.Error()})
	}
	q, err := url.ParseQuery(p.Query)
	if err != nil {
		failJob(err)
		return
	}
	req, err := s.decode(p.Format, strings.NewReader(p.Netlist), q)
	if err != nil {
		failJob(err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.reqTimeout)
	defer cancel()
	_, _ = s.execute(ctx, req, p.JobID)
}

// decode parses one request over the daemon's portfolio defaults. A
// budget left at 0, or past -req-timeout, runs under -req-timeout.
func (s *server) decode(format string, body io.Reader, q url.Values) (*serve.Request, error) {
	req, err := serve.ParseRequest(format, body, q, &s.cfg.portfolio)
	if err != nil {
		return nil, err
	}
	if b := req.Options.Budget; b <= 0 || b > s.cfg.reqTimeout {
		req.Options.Budget = s.cfg.reqTimeout
	}
	return req, nil
}

// handler builds the route table, every route behind the panic-recovery
// middleware: a panic anywhere in request handling becomes a 500 for
// that request and a counter bump, never a dead daemon.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", s.handlePartition)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/jobs/", s.HandleJob)
	return s.Recover(mux)
}

func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.WriteError(w, http.StatusMethodNotAllowed, "POST a netlist body to /partition")
		return
	}
	s.requests.Add(1)
	if s.RejectDraining(w) {
		return
	}
	// Memory-aware shedding: above the live-heap watermark new work is
	// refused with a retryable 503 instead of marching toward the OOM
	// killer (which would take every in-flight request down with it).
	if s.mem != nil && s.mem.shouldShed() {
		w.Header().Set("Retry-After", s.retryAfterHint(2))
		s.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shedding load: live heap above %d-byte watermark; retry later", s.mem.limit))
		return
	}
	// Admission control: a full queue answers 429 immediately rather
	// than stacking goroutines until memory runs out.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", s.retryAfterHint(1))
		s.WriteError(w, http.StatusTooManyRequests, "work queue full; retry later")
		return
	}
	defer func() { <-s.sem }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	reqIdx := int(s.reqCounter.Add(1) - 1)
	faultinject.Fire(faultinject.PointServeRequest, reqIdx)

	// The body is capped before parsing (413 oversized, as distinct
	// from 400 malformed). The raw bytes are kept: an accepted request
	// is journaled to the WAL verbatim so a crash can replay it.
	raw, ok := s.ReadBody(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	req, err := s.decode(format, bytes.NewReader(raw), r.URL.Query())
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Result cache: an identical (netlist fingerprint, options) pair is
	// answered from memory with the originally computed body — same
	// job_id, no WAL record, no engine run. Only non-degraded successes
	// are ever stored, so a hit is always a full-fidelity answer.
	var ck fleet.JobKey
	if s.cache != nil {
		ck = req.Key()
		if resp, ok := s.cache.get(ck); ok {
			s.writePartition(w, resp, reqIdx)
			return
		}
	}

	// A propagated deadline already in the past is refused before the
	// job is accepted (and journaled): the caller gave up, and a WAL
	// record with no outcome would be replayed as pending at next boot.
	timeout, expired := serve.RequestTimeout(r, s.cfg.reqTimeout)
	if expired {
		s.WriteError(w, http.StatusGatewayTimeout, "propagated deadline already expired")
		return
	}

	// The request is now accepted: give it a job id and journal it
	// before running, so a crash from here on re-enqueues it at boot.
	jobID := s.Jobs.Create()
	s.WAL.Append(serve.Record{Type: "accepted", JobID: jobID,
		Format: format, Query: r.URL.RawQuery, Netlist: string(raw)})

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp, err := s.execute(ctx, req, jobID)
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("partition failed: %v", err))
		return
	}
	if s.cache != nil && !resp.Degraded {
		s.cache.put(ck, resp)
	}
	s.writePartition(w, resp, reqIdx)
}

// execute runs the portfolio for one accepted job, updating the job
// table and journaling the outcome. Shared by live requests and boot
// recovery.
func (s *server) execute(ctx context.Context, req *serve.Request, jobID string) (serve.PartitionResponse, error) {
	s.Jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status = "running" })
	start := time.Now()
	h := req.H
	res, err := fasthgp.PartitionPortfolio(ctx, h, req.Options)
	wallMS := time.Since(start).Milliseconds()
	if err != nil {
		s.Jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status, j.Error, j.WallMS = "failed", err.Error(), wallMS })
		s.WAL.Append(serve.Record{Type: "failed", JobID: jobID, Error: err.Error()})
		return serve.PartitionResponse{}, err
	}
	if res.Degraded {
		s.degraded.Add(1)
	}
	assignment := make([]int, h.NumVertices())
	for v := range assignment {
		if res.Partition.Side(v) == partition.Right {
			assignment[v] = 1
		}
	}
	s.Jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS = "done", res.CutSize, res.TierName, res.Degraded, wallMS
	})
	s.WAL.Append(serve.Record{Type: "done", JobID: jobID,
		Cut: res.CutSize, TierName: res.TierName, Degraded: res.Degraded, WallMS: wallMS})
	return serve.PartitionResponse{
		JobID:      jobID,
		Modules:    h.NumVertices(),
		Nets:       h.NumEdges(),
		Cut:        res.CutSize,
		Tier:       res.Tier,
		TierName:   res.TierName,
		Degraded:   res.Degraded,
		Assignment: assignment,
		WallMS:     wallMS,
	}, nil
}

// handleHealthz is the liveness/readiness probe. It always answers
// HTTP 200 while the process serves (liveness); degradation — open
// breakers, the heap above the shedding watermark, WAL append errors —
// is reported in the body as status "degraded" with the reasons, plus
// the queue depth, per-tier breaker states, and the age of the last
// durable WAL record.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"queue_depth":    len(s.sem),
		"queue_capacity": s.cfg.queue,
	}
	var reasons []string
	if b := s.cfg.portfolio.Breakers; b != nil {
		states := b.States()
		resp["breakers"] = states
		for name, state := range states {
			if state == "open" {
				reasons = append(reasons, "circuit breaker open: "+name)
			}
		}
	}
	if s.mem != nil {
		heap := s.mem.heapBytes()
		resp["heap_bytes"] = heap
		resp["max_heap_bytes"] = s.mem.limit
		if heap > s.mem.limit {
			reasons = append(reasons, "live heap above shedding watermark")
		}
	}
	if s.cache != nil {
		resp["cache"] = s.cache.snapshot()
	} else {
		resp["cache"] = false
	}
	s.WriteHealth(w, resp, reasons)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var cache any = false
	if s.cache != nil {
		cache = s.cache.snapshot()
	}
	stats := map[string]any{
		"cache":            cache,
		"requests":         s.requests.Load(),
		"in_flight":        s.inFlight.Load(),
		"ok":               s.ok200.Load(),
		"bad_request":      s.bad400.Load(),
		"too_large":        s.tooLarge.Load(),
		"busy":             s.busy429.Load(),
		"shed":             s.shed503.Load(),
		"failed":           s.failed500.Load(),
		"degraded":         s.degraded.Load(),
		"panics_recovered": s.Panics.Load(),
		"queue_capacity":   s.cfg.queue,
	}
	s.WriteStats(w, stats)
}

// countStatus feeds the /stats status counters; it sees every response
// the edge writes.
func (s *server) countStatus(code int) {
	switch code {
	case http.StatusOK:
		s.ok200.Add(1)
	case http.StatusBadRequest:
		s.bad400.Add(1)
	case http.StatusRequestEntityTooLarge:
		s.tooLarge.Add(1)
	case http.StatusTooManyRequests:
		s.busy429.Add(1)
	case http.StatusServiceUnavailable:
		s.shed503.Add(1)
	case http.StatusInternalServerError:
		s.failed500.Add(1)
	}
}

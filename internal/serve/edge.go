// Package serve is the service layer hgpartd and hgpartcoord share,
// so that each job in it has one implementation:
//
//   - the write-ahead log of accepted jobs, its boot replay into the
//     job table, and its scrub (wal.go);
//   - the HTTP edge: JSON and error writers, panic recovery, the body
//     cap, the propagated X-Request-Deadline, drain, GET /jobs/{id},
//     the /healthz and /stats blocks both daemons report, fault
//     arming, and the listen → signal → drain → shutdown sequence
//     (edge.go);
//   - the request: the one decoder of a /partition netlist, its
//     balance constraint and its portfolio options, with the canonical
//     key both daemons cache and collapse on, the 200 body, and the
//     oracle check an answer must pass (contract.go), which hgpartload
//     also uses to check answers from outside.
//
// What stays in the binaries is what differs: hgpartd's admission,
// result cache and portfolio; hgpartcoord's routing, handoff, hedging
// and quarantine.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
)

// Edge is one daemon's HTTP surface: everything about request handling
// that does not depend on what the daemon does with a job.
type Edge struct {
	Stdout io.Writer // log lines, each prefixed with the daemon's name
	Jobs   *fleet.JobTable
	WAL    *WAL // nil = WAL disabled

	// Count, when set, sees the status of every response written
	// through WriteJSON (hgpartd's /stats counters). It is a hook, not
	// a wrapped ResponseWriter: a wrapper would hide the hook through
	// which MaxBytesReader makes the server close the connection after
	// a 413.
	Count func(code int)

	Panics atomic.Int64 // panics converted to 500 by Recover

	// name prefixes every log line ("hgpartd: listening on ...") and
	// names the WAL ("hgpartd-wal").
	name         string
	maxBody      int64         // request-body cap; beyond it the request is 413
	drainTimeout time.Duration // SIGTERM grace, also the drain Retry-After
	begin        time.Time
	draining     atomic.Bool
}

// NewEdge returns an edge with an empty job table and no WAL.
func NewEdge(name string, stdout io.Writer, maxBody int64, drainTimeout time.Duration) *Edge {
	return &Edge{
		Stdout:       stdout,
		Jobs:         fleet.NewJobTable(),
		name:         name,
		maxBody:      maxBody,
		drainTimeout: drainTimeout,
		begin:        time.Now(),
	}
}

// OpenWAL attaches the WAL at path (created if absent) and replays it:
// every journaled job reappears on GET /jobs/{id} in its last known
// state, new job ids continue after the dead process's, and the
// accepted-but-unfinished records are returned, in acceptance order,
// for the daemon to re-enqueue.
func (e *Edge) OpenWAL(path string) ([]Record, error) {
	w, replayed, err := openWAL(path, e.name+"-wal")
	if err != nil {
		return nil, err
	}
	e.WAL = w
	pending := restore(e.Jobs, replayed)
	if len(replayed) > 0 || len(pending) > 0 {
		fmt.Fprintf(e.Stdout, "%s: WAL %s: replayed %d record(s), re-enqueuing %d interrupted job(s)\n",
			e.name, path, len(replayed), len(pending))
	}
	return pending, nil
}

// WriteJSON writes v as the JSON body of a code response.
func (e *Edge) WriteJSON(w http.ResponseWriter, code int, v any) {
	if e.Count != nil {
		e.Count(code)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error body {"error": msg, "status": code}.
func (e *Edge) WriteError(w http.ResponseWriter, code int, msg string) {
	e.WriteJSON(w, code, map[string]any{"error": msg, "status": code})
}

// Recover wraps next so that a panic anywhere in request handling
// becomes a 500 for that request and a Panics bump, never a dead
// daemon.
func (e *Edge) Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				e.Panics.Add(1)
				e.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ReadBody reads the request body under the body cap. On failure it
// answers 413 (oversized) or 400 (unreadable) itself and returns false.
func (e *Edge) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, e.maxBody))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			e.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		} else {
			e.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return nil, false
	}
	return raw, true
}

// RequestTimeout derives one request's wall budget: limit, capped by a
// propagated X-Request-Deadline header (unix milliseconds). expired
// reports a deadline already in the past — the caller gave up, and
// running would waste a slot. A malformed header is ignored: deadline
// propagation never breaks a request.
func RequestTimeout(r *http.Request, limit time.Duration) (timeout time.Duration, expired bool) {
	ms, err := strconv.ParseInt(r.Header.Get("X-Request-Deadline"), 10, 64)
	if err != nil {
		return limit, false
	}
	remaining := time.Until(time.UnixMilli(ms))
	if remaining <= 0 {
		return 0, true
	}
	return min(remaining, limit), false
}

// HandleJob serves GET /jobs/{id} from the job table (rebuilt from the
// WAL at boot, so it answers for jobs a dead process accepted).
func (e *Edge) HandleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		e.WriteError(w, http.StatusMethodNotAllowed, "GET /jobs/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		e.WriteError(w, http.StatusBadRequest, "want /jobs/{id}")
		return
	}
	job, ok := e.Jobs.Get(id)
	if !ok {
		e.WriteError(w, http.StatusNotFound, fmt.Sprintf("job %q not tracked (finished jobs are evicted after %d newer jobs)", id, fleet.MaxJobs))
		return
	}
	e.WriteJSON(w, http.StatusOK, job)
}

// StartDraining flips the edge into drain mode: RejectDraining refuses
// new jobs while in-flight ones finish.
func (e *Edge) StartDraining() { e.draining.Store(true) }

// Draining reports whether drain has started.
func (e *Edge) Draining() bool { return e.draining.Load() }

// RejectDraining answers a new job with a retryable 503 once drain has
// started, and reports whether it did. The Retry-After hint is the
// drain grace in whole seconds (at least 1): by then this process is
// gone, so a retry lands on its replacement — the client, or the
// coordinator fronting this worker, re-routes instead of watching a
// connection die when the drain deadline passes.
func (e *Edge) RejectDraining(w http.ResponseWriter) bool {
	if !e.Draining() {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(e.drainTimeout/time.Second))))
	e.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("draining: %s is shutting down; retry another instance", e.name))
	return true
}

// WriteHealth answers /healthz with body plus the blocks both daemons
// share: uptime, job counts, the WAL (age of the last durable record,
// append errors, latest scrub), and drain. It always answers HTTP 200
// while the process serves (liveness); degradation is reported in the
// body as status "degraded" with the sorted reasons.
func (e *Edge) WriteHealth(w http.ResponseWriter, body map[string]any, reasons []string) {
	body["status"] = "ok"
	body["uptime_ms"] = time.Since(e.begin).Milliseconds()
	body["jobs"] = e.Jobs.Counts()
	reasons = e.WAL.health(body, reasons)
	if e.Draining() {
		body["draining"] = true
		reasons = append(reasons, "draining: shutting down")
	}
	if len(reasons) > 0 {
		sort.Strings(reasons)
		body["status"] = "degraded"
		body["degraded_reasons"] = reasons
	}
	e.WriteJSON(w, http.StatusOK, body)
}

// WriteStats answers /stats with body plus the shared counters: job
// counts, uptime, WAL append errors and the latest scrub.
func (e *Edge) WriteStats(w http.ResponseWriter, body map[string]any) {
	body["jobs"] = e.Jobs.Counts()
	body["uptime_ms"] = time.Since(e.begin).Milliseconds()
	e.WAL.stats(body)
	e.WriteJSON(w, http.StatusOK, body)
}

// ArmFaults installs the fault-injection spec (read from
// FASTHGP_FAULTS when spec is empty) and returns the function that
// disarms it.
func ArmFaults(name, spec string, stdout io.Writer) (disarm func(), err error) {
	if spec == "" {
		spec = os.Getenv("FASTHGP_FAULTS")
	}
	if spec == "" {
		return func() {}, nil
	}
	plan, err := faultinject.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: fault injection armed: %s\n", name, spec)
	return faultinject.Install(plan), nil
}

// Listen binds addr and prints the actual address, so that :0 resolves
// and whoever needs the port (CI, scripts) can read it from the log.
func (e *Edge) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.Stdout, "%s: listening on %s\n", e.name, ln.Addr())
	return ln, nil
}

// Ticker is a background task Serve runs every Every until shutdown.
type Ticker struct {
	Every time.Duration
	Run   func()
}

// Serve answers h on ln until SIGTERM or SIGINT, then drains: new jobs
// bounce with 503 + Retry-After from the moment the signal arrives,
// onDrain (if set) runs, and in-flight requests get the drain grace to
// finish before the listener closes. With a WAL attached and
// scrubEvery > 0, a scrub pass re-walks the WAL's CRC frames on that
// cadence, so bit rot shows on /healthz while the process is healthy
// rather than at the next crash's replay. Tickers stop at the signal.
func (e *Edge) Serve(ln net.Listener, h http.Handler, scrubEvery time.Duration, onDrain func(), tickers ...Ticker) error {
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if e.WAL != nil {
		tickers = append(tickers, Ticker{Every: scrubEvery, Run: e.scrub})
	}
	for _, t := range tickers {
		if t.Every > 0 {
			go every(t.Every, ctx.Done(), t.Run)
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	e.StartDraining()
	if onDrain != nil {
		onDrain()
	}
	fmt.Fprintf(e.Stdout, "%s: signal received, draining for up to %s\n", e.name, e.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), e.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(e.Stdout, "%s: drained, bye\n", e.name)
	return nil
}

// scrub runs one WAL scrub pass and logs rot.
func (e *Edge) scrub() {
	if st := e.WAL.Scrub(); !st.Healthy() {
		fmt.Fprintf(e.Stdout, "%s: WAL scrub unhealthy: %s\n", e.name, st.Problem())
	}
}

// every runs f on a ticker until stop closes.
func every(interval time.Duration, stop <-chan struct{}, f func()) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			f()
		}
	}
}

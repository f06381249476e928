package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// waitForJob polls the job table until the job reaches a terminal
// state or the deadline passes.
func waitForJob(t *testing.T, s *server, id string) fleet.JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Jobs.Get(id); ok && j.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := s.Jobs.Get(id)
	t.Fatalf("job %s never finished: %+v", id, j)
	return fleet.JobInfo{}
}

// waitIdle polls until no request or recovered job is running. A job
// is marked terminal in the job table before its outcome is journaled
// and before its runner releases its slot, so a test that needs the
// outcome on disk, or the slot back, waits for this too.
func waitIdle(t *testing.T, s *server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inFlight = %d ten seconds after the last job finished, want 0", s.inFlight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPartitionReturnsJobID(t *testing.T) {
	s := testServer()
	h := s.handler()
	rec := post(t, h, "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.JobID == "" {
		t.Fatal("response has no job_id")
	}
	jrec := httptest.NewRecorder()
	h.ServeHTTP(jrec, httptest.NewRequest(http.MethodGet, "/jobs/"+resp.JobID, nil))
	if jrec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d, body %s", resp.JobID, jrec.Code, jrec.Body)
	}
	var job fleet.JobInfo
	if err := json.Unmarshal(jrec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "done" || job.Cut != resp.Cut || job.TierName != resp.TierName {
		t.Errorf("job = %+v, want done with cut %d tier %s", job, resp.Cut, resp.TierName)
	}
}

func TestJobsUnknown404(t *testing.T) {
	h := testServer().handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/j999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty job id = %d, want 400", rec.Code)
	}
}

// TestWALPersistsAcrossRestart is the daemon-side crash drill, run
// in-process: server A journals a request to the WAL; server B (a new
// process in all but pid) replays the WAL and must answer GET /jobs/{id}
// for A's job.
func TestWALPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")

	sa := testServer()
	pending, err := sa.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	sa.requeue(pending)
	rec := post(t, sa.handler(), "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	sa.WAL.Close() // crash; no graceful anything beyond the fsyncs already done

	sb := testServer()
	pending2, err := sb.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.WAL.Close()
	if len(pending2) != 0 {
		t.Fatalf("finished job came back as pending: %+v", pending2)
	}
	job, ok := sb.Jobs.Get(resp.JobID)
	if !ok {
		t.Fatalf("restarted daemon lost job %s", resp.JobID)
	}
	if job.Status != "done" || job.Cut != resp.Cut {
		t.Errorf("replayed job = %+v, want done with cut %d", job, resp.Cut)
	}

	// Job ids keep counting where the dead process stopped.
	if id := sb.Jobs.Create(); fleet.JobSeq(id) <= fleet.JobSeq(resp.JobID) {
		t.Errorf("new job id %s does not continue after %s", id, resp.JobID)
	}
}

// TestWALReenqueuesInterruptedJob: a WAL holding an accepted record
// with no outcome — exactly what a kill -9 mid-request leaves — must
// cause the next boot to re-run the job to completion.
func TestWALReenqueuesInterruptedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	first := testServer()
	if _, err := first.OpenWAL(path); err != nil {
		t.Fatal(err)
	}
	if err := first.WAL.Append(serve.Record{Type: "accepted", JobID: "j7",
		Query: "seed=3&starts=2", Netlist: testNets}); err != nil {
		t.Fatal(err)
	}
	first.WAL.Close() // the "crash": accepted journaled, outcome never written

	s := testServer()
	pending, err := s.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].JobID != "j7" {
		t.Fatalf("pending = %+v, want the interrupted j7", pending)
	}
	s.requeue(pending)

	job := waitForJob(t, s, "j7")
	if job.Status != "done" || !job.Requeued || job.Cut < 1 {
		t.Fatalf("recovered job = %+v, want done+requeued with a real cut", job)
	}

	// The outcome is durable: a third boot sees nothing left to do.
	waitIdle(t, s)
	s.WAL.Close()
	third := testServer()
	pending3, err := third.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer third.WAL.Close()
	if len(pending3) != 0 {
		t.Fatalf("job still pending after recovery run: %+v", pending3)
	}
}

// TestWALRecoveredJobFailureIsJournaled: a recovered job whose netlist
// no longer parses (schema drift, truncation) must fail loudly in the
// job table, not wedge the queue.
func TestWALRecoveredJobFailureIsJournaled(t *testing.T) {
	s := testServer()
	path := filepath.Join(t.TempDir(), "wal")
	if _, err := s.OpenWAL(path); err != nil {
		t.Fatal(err)
	}
	defer s.WAL.Close()
	s.requeue([]serve.Record{{Type: "accepted", JobID: "j3", Netlist: "frobnicate\n"}})
	job := waitForJob(t, s, "j3")
	if job.Status != "failed" || job.Error == "" {
		t.Fatalf("job = %+v, want failed with an error", job)
	}
	waitIdle(t, s) // fails if the recovery run leaks its slot
}

// TestMemoryShedding503: with the watermark set below any real heap,
// new partition requests are shed with a retryable 503 and /healthz
// reports degraded — while still answering HTTP 200 (liveness).
func TestMemoryShedding503(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.maxHeap = 1 }) // 1 byte: always over
	h := s.handler()
	rec := post(t, h, "/partition", testNets)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if s.shed503.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", s.shed503.Load())
	}

	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 even when degraded", hrec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded; body %s", health["status"], hrec.Body)
	}
}

// TestHealthzReportsBreakerStates: /healthz lists per-tier breaker
// states and degrades when one is open.
func TestHealthzReportsBreakerStates(t *testing.T) {
	s := testServer(func(c *serverConfig) {
		c.breakerThreshold = 1
		c.breakerCooldown = time.Hour
	})
	h := s.handler()
	s.cfg.portfolio.Breakers.For("fm").Allow()
	s.cfg.portfolio.Breakers.For("fm").Record(false) // trip it

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	var health struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
		Reasons  []string          `json:"degraded_reasons"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Breakers["fm"] != "open" {
		t.Errorf("healthz = %+v, want degraded with fm open", health)
	}
	if len(health.Reasons) == 0 || !strings.Contains(health.Reasons[0], "fm") {
		t.Errorf("degraded_reasons = %v, want the fm breaker named", health.Reasons)
	}
}

// TestHealthzHealthyShape: the healthy payload carries the fields CI
// and dashboards key on.
func TestHealthzHealthyShape(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.breakerThreshold = 3 })
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("status = %v, want ok", health["status"])
	}
	for _, key := range []string{"queue_depth", "queue_capacity", "jobs", "uptime_ms", "wal"} {
		if _, ok := health[key]; !ok {
			t.Errorf("healthz missing %q: %s", key, rec.Body)
		}
	}
}

// TestBreakerSkipsTierAcrossRequests: a tier that fails on every
// request trips its breaker; later requests skip it outright and are
// answered by the fallback without burning attempts on the broken tier.
func TestBreakerSkipsTierAcrossRequests(t *testing.T) {
	s := testServer(func(c *serverConfig) {
		c.breakerThreshold = 1
		c.breakerCooldown = time.Hour
		c.portfolio.Chain = []string{"multilevel", "fm"}
	})
	s.cfg.portfolio.Breakers.For("multilevel").Allow()
	s.cfg.portfolio.Breakers.For("multilevel").Record(false) // open

	rec := post(t, s.handler(), "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TierName != "fm" || !resp.Degraded {
		t.Errorf("tier = %s degraded = %v, want fm/true (multilevel skipped by its breaker)", resp.TierName, resp.Degraded)
	}
}

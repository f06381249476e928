package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fasthgp"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/serve"
)

const testNets = `module a
module b
module c
module d
module e
module f
net n1 a b c
net n2 c d
net n3 d e f
net n4 b e
`

func testServer(mutate ...func(*serverConfig)) *server {
	cfg := serverConfig{
		maxBody:    1 << 20,
		queue:      2,
		reqTimeout: 30 * time.Second,
		portfolio:  fasthgp.PortfolioOptions{Starts: 2, Seed: 1},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	return newServer(cfg, io.Discard)
}

func post(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	rec := httptest.NewRecorder()
	testServer().handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
}

func TestPartitionValidNetlist(t *testing.T) {
	s := testServer()
	rec := post(t, s.handler(), "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Modules != 6 || resp.Nets != 4 {
		t.Errorf("modules/nets = %d/%d, want 6/4", resp.Modules, resp.Nets)
	}
	if len(resp.Assignment) != 6 {
		t.Errorf("assignment length = %d, want 6", len(resp.Assignment))
	}
	if resp.Degraded || resp.Tier != 0 {
		t.Errorf("healthy request degraded: tier %d (%s)", resp.Tier, resp.TierName)
	}
	if resp.Cut < 1 {
		t.Errorf("cut = %d on a connected netlist", resp.Cut)
	}
}

func TestMalformedNetlist400(t *testing.T) {
	s := testServer()
	rec := post(t, s.handler(), "/partition", "module a\nfrobnicate a b\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body)
	}
	if s.bad400.Load() != 1 {
		t.Errorf("bad400 counter = %d, want 1", s.bad400.Load())
	}
}

func TestOversizedBody413(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.maxBody = 64 })
	rec := post(t, s.handler(), "/partition", testNets+strings.Repeat("# padding\n", 50))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", rec.Code, rec.Body)
	}
	if s.tooLarge.Load() != 1 {
		t.Errorf("tooLarge counter = %d, want 1", s.tooLarge.Load())
	}
}

// TestQueueFull429: with every admission token held, a new request is
// rejected immediately with Retry-After rather than queued.
func TestQueueFull429(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.queue = 1 })
	s.sem <- struct{}{} // occupy the only slot, as an in-flight request would
	rec := post(t, s.handler(), "/partition", testNets)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-s.sem
	if rec = post(t, s.handler(), "/partition", testNets); rec.Code != http.StatusOK {
		t.Fatalf("freed queue still rejects: %d", rec.Code)
	}
}

// TestInjectedPanicBecomes500: a forced panic inside request handling
// is caught by the middleware — 500 for that request, counter bumped,
// and the very next request succeeds.
func TestInjectedPanicBecomes500(t *testing.T) {
	plan, err := faultinject.ParseSpec("panic@hgpartd.request:0")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Install(plan)()
	s := testServer()
	rec := post(t, s.handler(), "/partition", testNets)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", rec.Code, rec.Body)
	}
	if s.Panics.Load() != 1 {
		t.Errorf("panics recovered = %d, want 1", s.Panics.Load())
	}
	if rec = post(t, s.handler(), "/partition", testNets); rec.Code != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200", rec.Code)
	}
	if n := s.inFlight.Load(); n != 0 {
		t.Errorf("inFlight = %d after panic, want 0 (leaked semaphore?)", n)
	}
}

func TestPerRequestChainOverride(t *testing.T) {
	s := testServer()
	rec := post(t, s.handler(), "/partition?chain=core&starts=2", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TierName != "algo1" {
		t.Errorf("tier name = %s, want algo1 (the 'core' alias)", resp.TierName)
	}
}

// TestBadQueryParams400: a malformed option is the request's fault, so
// it answers 400 before a job id or WAL record exists, and /stats
// counts it as a bad request, never a failure — whatever the option.
func TestBadQueryParams400(t *testing.T) {
	s := testServer()
	if _, err := s.OpenWAL(filepath.Join(t.TempDir(), "wal")); err != nil {
		t.Fatal(err)
	}
	defer s.WAL.Close()
	urls := []string{
		"/partition?starts=zero", "/partition?starts=abc", "/partition?seed=x",
		"/partition?budget=-1s", "/partition?format=xml",
		"/partition?chain=quantum", "/partition?chain=nosuch", "/partition?chain=fm,",
		"/partition?chain=fm,%20,core",
	}
	for _, url := range urls {
		if rec := post(t, s.handler(), url, testNets); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", url, rec.Code, rec.Body)
		}
	}
	if counts := s.Jobs.Counts(); len(counts) != 0 {
		t.Errorf("job table = %v after bad requests, want empty", counts)
	}
	if id := s.Jobs.Create(); id != "j1" {
		t.Errorf("first job id after bad requests = %s, want j1", id)
	}
	if rep := s.WAL.Scrub().Report; rep.Records != 1 {
		t.Errorf("WAL holds %d record(s), want only its header", rep.Records)
	}
	if bad, failed := s.bad400.Load(), s.failed500.Load(); bad != int64(len(urls)) || failed != 0 {
		t.Errorf("bad_request = %d, failed = %d, want %d and 0", bad, failed, len(urls))
	}
}

// TestBadChainFlagRefusedAtBoot: a -chain the decoder would refuse is
// a configuration error, so the daemon exits 1 before listening rather
// than answer every request with a 400 that is not the client's fault.
func TestBadChainFlagRefusedAtBoot(t *testing.T) {
	for _, chain := range []string{"nosuch", "fm,", "fm, ,core"} {
		var out bytes.Buffer
		if code := run([]string{"-addr", "127.0.0.1:0", "-chain", chain}, &out, &out); code != 1 ||
			!strings.Contains(out.String(), "-chain") || strings.Contains(out.String(), "listening") {
			t.Errorf("-chain %q: exit %d, output %q; want 1 naming -chain, never listening", chain, code, out.String())
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	testServer().handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/partition", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /partition = %d, want 405", rec.Code)
	}
}

func TestStatsCounters(t *testing.T) {
	s := testServer()
	h := s.handler()
	post(t, h, "/partition", testNets)
	post(t, h, "/partition", "frobnicate\n")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["requests"].(float64) != 2 || stats["ok"].(float64) != 1 || stats["bad_request"].(float64) != 1 {
		t.Errorf("stats = %v, want requests 2, ok 1, bad_request 1", stats)
	}
}

// TestGracefulShutdown boots the real daemon on an ephemeral port,
// serves one request, sends SIGTERM, and expects a clean exit 0 drain.
func TestGracefulShutdown(t *testing.T) {
	stdout := &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-starts", "2"}, stdout, stdout) }()

	addr := ""
	for i := 0; i < 200 && addr == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "hgpartd: listening on "); ok {
				addr = rest
			}
		}
	}
	if addr == "" {
		t.Fatalf("daemon never printed its address; output: %q", stdout.String())
	}
	resp, err := http.Post("http://"+addr+"/partition?starts=2", "text/plain", strings.NewReader(testNets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request = %d, want 200", resp.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; output: %q", code, stdout.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Errorf("no drain message in output: %q", stdout.String())
	}
}

// syncBuffer is a mutex-guarded buffer: the daemon goroutine writes
// while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDrainRejectsNewJobs: once drain starts, new partition requests
// answer 503 with a Retry-After hint and are never accepted (no job id,
// no WAL record), while probes and job lookups keep working.
func TestDrainRejectsNewJobs(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.drainTimeout = 7 * time.Second })
	h := s.handler()
	s.StartDraining()
	rec := post(t, h, "/partition", testNets)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q (the drain grace in seconds)", got, "7")
	}
	if counts := s.Jobs.Counts(); len(counts) != 0 {
		t.Errorf("draining daemon accepted a job: %v", counts)
	}
	// The health probe still answers, and reports the drain.
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", hrec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" || health["draining"] != true {
		t.Errorf("healthz during drain = status %v, draining %v; want degraded/true",
			health["status"], health["draining"])
	}
}

// TestDeadlineHeader: a propagated X-Request-Deadline below the
// configured -req-timeout caps the request budget, and one already in
// the past is refused with 504 before the job is accepted.
func TestDeadlineHeader(t *testing.T) {
	s := testServer()
	h := s.handler()

	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(testNets))
	req.Header.Set("X-Request-Deadline", strconv.FormatInt(time.Now().Add(10*time.Second).UnixMilli(), 10))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status with live deadline = %d, body %s", rec.Code, rec.Body)
	}

	req = httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(testNets))
	req.Header.Set("X-Request-Deadline", strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status with expired deadline = %d, want 504; body %s", rec.Code, rec.Body)
	}
	if counts := s.Jobs.Counts(); counts["accepted"]+counts["running"]+counts["failed"] != 0 && len(counts) != 1 {
		t.Errorf("expired-deadline request left job state: %v", counts)
	}

	// A malformed header never breaks the request: fall back to the
	// configured timeout.
	req = httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(testNets))
	req.Header.Set("X-Request-Deadline", "not-a-number")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status with malformed deadline = %d, body %s", rec.Code, rec.Body)
	}
}

// TestRequestTimeoutDerivation pins the header-capping arithmetic.
func TestRequestTimeoutDerivation(t *testing.T) {
	s := testServer() // reqTimeout 30s
	mk := func(hdr string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/partition", nil)
		if hdr != "" {
			r.Header.Set("X-Request-Deadline", hdr)
		}
		return r
	}
	if d, expired := serve.RequestTimeout(mk(""), s.cfg.reqTimeout); expired || d != 30*time.Second {
		t.Errorf("no header: (%v, %v), want (30s, false)", d, expired)
	}
	far := strconv.FormatInt(time.Now().Add(time.Hour).UnixMilli(), 10)
	if d, expired := serve.RequestTimeout(mk(far), s.cfg.reqTimeout); expired || d != 30*time.Second {
		t.Errorf("far deadline must not raise the cap: (%v, %v)", d, expired)
	}
	near := strconv.FormatInt(time.Now().Add(5*time.Second).UnixMilli(), 10)
	if d, expired := serve.RequestTimeout(mk(near), s.cfg.reqTimeout); expired || d > 5*time.Second || d < 4*time.Second {
		t.Errorf("near deadline must cap the budget: (%v, %v)", d, expired)
	}
	past := strconv.FormatInt(time.Now().Add(-time.Minute).UnixMilli(), 10)
	if _, expired := serve.RequestTimeout(mk(past), s.cfg.reqTimeout); !expired {
		t.Error("past deadline not reported expired")
	}
}

// TestWALErrorSurfacesOnHealthz: a failing WAL append (a full disk,
// injected) never fails the request, but degrades the health report
// and carries the underlying error text.
func TestWALErrorSurfacesOnHealthz(t *testing.T) {
	s := testServer()
	if _, err := s.OpenWAL(filepath.Join(t.TempDir(), "wal")); err != nil {
		t.Fatal(err)
	}
	defer s.WAL.Close()
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointCheckpointWrite, Index: faultinject.AnyIndex,
			Kind: faultinject.KindErrno, Errno: syscall.ENOSPC},
	}})()
	if rec := post(t, s.handler(), "/partition?seed=3", testNets); rec.Code != http.StatusOK {
		t.Fatalf("request with a full WAL disk = %d, want 200; body %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" {
		t.Errorf("status = %v, want degraded", health["status"])
	}
	if health["wal_errors"] != float64(2) { // accepted + done
		t.Errorf("wal_errors = %v, want 2", health["wal_errors"])
	}
	if last, _ := health["wal_last_error"].(string); !strings.Contains(last, "no space left") {
		t.Errorf("wal_last_error = %v", health["wal_last_error"])
	}
	reasons, _ := health["degraded_reasons"].([]any)
	found := false
	for _, r := range reasons {
		if rs, ok := r.(string); ok && strings.Contains(rs, "no space left") {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded_reasons %v does not carry the WAL error", reasons)
	}
}

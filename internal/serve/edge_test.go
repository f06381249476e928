package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fasthgp/internal/fleet"
)

// countingEdge returns an edge whose Count hook tallies statuses.
func countingEdge(maxBody int64) (*Edge, map[int]int) {
	e := NewEdge("hgpartd", nil, maxBody, 7*time.Second)
	counts := map[int]int{}
	e.Count = func(code int) { counts[code]++ }
	return e, counts
}

// TestEdgeCountsEveryStatus: the Count hook sees the 413 and 400 of
// ReadBody, the 500 of a recovered panic, and every /jobs/{id} answer.
func TestEdgeCountsEveryStatus(t *testing.T) {
	e, counts := countingEdge(8)
	mux := http.NewServeMux()
	mux.HandleFunc("/body", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := e.ReadBody(w, r); ok {
			e.WriteJSON(w, http.StatusOK, "ok")
		}
	})
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/jobs/", e.HandleJob)
	h := e.Recover(mux)
	id := e.Jobs.Create()

	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{http.MethodPost, "/body", "small", http.StatusOK},
		{http.MethodPost, "/body", "far more than eight bytes", http.StatusRequestEntityTooLarge},
		{http.MethodGet, "/panic", "", http.StatusInternalServerError},
		{http.MethodGet, "/jobs/" + id, "", http.StatusOK},
		{http.MethodGet, "/jobs/j999", "", http.StatusNotFound},
		{http.MethodGet, "/jobs/", "", http.StatusBadRequest},
		{http.MethodPost, "/jobs/" + id, "", http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d: %s", tc.method, tc.url, rec.Code, tc.want, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type = %q", tc.method, tc.url, ct)
		}
	}
	want := map[int]int{200: 2, 413: 1, 500: 1, 404: 1, 400: 1, 405: 1}
	for code, n := range want {
		if counts[code] != n {
			t.Errorf("count[%d] = %d, want %d (all: %v)", code, counts[code], n, counts)
		}
	}
	if e.Panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", e.Panics.Load())
	}
}

// TestOversizedBodyClosesConnection: over a real connection, the 413
// from ReadBody makes the server close the connection (the client
// cannot be trusted to have stopped sending) even with the Count hook
// set — the hook must not hide the ResponseWriter MaxBytesReader sees.
func TestOversizedBodyClosesConnection(t *testing.T) {
	e, counts := countingEdge(8)
	srv := httptest.NewServer(e.Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := e.ReadBody(w, r); ok {
			e.WriteJSON(w, http.StatusOK, "ok")
		}
	})))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader(strings.Repeat("x", 1<<16)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Errorf("status %d, connection close %v; want 413 and close", resp.StatusCode, resp.Close)
	}
	if counts[http.StatusRequestEntityTooLarge] != 1 {
		t.Errorf("counts = %v, want one 413", counts)
	}
}

// TestEdgeErrorBody: every error is {"error": msg, "status": code}.
func TestEdgeErrorBody(t *testing.T) {
	e := NewEdge("hgpartcoord", nil, 1, time.Second)
	rec := httptest.NewRecorder()
	e.WriteError(rec, http.StatusBadGateway, "all forwards failed")
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body) != 2 || body["error"] != "all forwards failed" || body["status"] != float64(502) {
		t.Errorf("body = %v", body)
	}
}

// TestRejectDrainingRetryAfter: before drain nothing is refused; after
// it, a 503 carries the drain grace in whole seconds, at least 1.
func TestRejectDrainingRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		grace time.Duration
		want  string
	}{{7 * time.Second, "7"}, {1500 * time.Millisecond, "1"}, {0, "1"}} {
		e := NewEdge("hgpartd", nil, 1, tc.grace)
		if rec := httptest.NewRecorder(); e.RejectDraining(rec) {
			t.Fatal("refused before drain")
		}
		e.StartDraining()
		rec := httptest.NewRecorder()
		if !e.RejectDraining(rec) || rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("grace %v: not refused with 503 (code %d)", tc.grace, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("grace %v: Retry-After = %q, want %q", tc.grace, got, tc.want)
		}
	}
}

// TestRequestTimeout pins the X-Request-Deadline arithmetic: no or a
// malformed header keeps the limit, a far deadline never raises it, a
// near one caps it, a past one is expired.
func TestRequestTimeout(t *testing.T) {
	mk := func(hdr string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/partition", nil)
		if hdr != "" {
			r.Header.Set("X-Request-Deadline", hdr)
		}
		return r
	}
	at := func(d time.Duration) string { return strconv.FormatInt(time.Now().Add(d).UnixMilli(), 10) }
	limit := 30 * time.Second
	for _, hdr := range []string{"", "not-a-number", at(time.Hour)} {
		if d, expired := RequestTimeout(mk(hdr), limit); expired || d != limit {
			t.Errorf("header %q: (%v, %v), want (%v, false)", hdr, d, expired, limit)
		}
	}
	if d, expired := RequestTimeout(mk(at(5*time.Second)), limit); expired || d > 5*time.Second || d < 4*time.Second {
		t.Errorf("near deadline: (%v, %v), want ~5s", d, expired)
	}
	if _, expired := RequestTimeout(mk(at(-time.Minute)), limit); !expired {
		t.Error("past deadline not expired")
	}
}

// TestWriteHealthSharedBlocks: the shared /healthz and /stats keys,
// and degradation from drain.
func TestWriteHealthSharedBlocks(t *testing.T) {
	e := NewEdge("hgpartd", nil, 1, time.Second)
	e.Jobs.Restore(fleet.JobInfo{ID: "j1", Status: "done"})
	decode := func(rec *httptest.ResponseRecorder) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	rec := httptest.NewRecorder()
	e.WriteHealth(rec, map[string]any{"own": 1}, nil)
	m := decode(rec)
	for _, k := range []string{"own", "status", "uptime_ms", "jobs", "wal"} {
		if _, ok := m[k]; !ok {
			t.Errorf("healthz missing %q: %v", k, m)
		}
	}
	if m["status"] != "ok" || len(m) != 5 {
		t.Errorf("healthy body = %v", m)
	}

	e.StartDraining()
	rec = httptest.NewRecorder()
	e.WriteHealth(rec, map[string]any{}, []string{"z: own reason"})
	m = decode(rec)
	reasons, _ := m["degraded_reasons"].([]any)
	if rec.Code != http.StatusOK || m["status"] != "degraded" || m["draining"] != true ||
		len(reasons) != 2 || reasons[0] != "draining: shutting down" {
		t.Errorf("draining body = %v (code %d), want degraded with sorted reasons", m, rec.Code)
	}

	rec = httptest.NewRecorder()
	e.WriteStats(rec, map[string]any{"own": 1})
	m = decode(rec)
	if len(m) != 4 || m["wal_errors"] != float64(0) || m["jobs"] == nil || m["uptime_ms"] == nil {
		t.Errorf("stats body = %v", m)
	}
}

func TestArmFaults(t *testing.T) {
	var out strings.Builder
	t.Setenv("FASTHGP_FAULTS", "")
	disarm, err := ArmFaults("hgpartd", "", &out)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty spec: err %v, output %q", err, out.String())
	}
	disarm()
	if _, err := ArmFaults("hgpartd", "nonsense", &out); err == nil {
		t.Error("bad spec accepted")
	}
	t.Setenv("FASTHGP_FAULTS", "drop@fleet.forward:0")
	disarm, err = ArmFaults("hgpartcoord", "", &out)
	if err != nil {
		t.Fatal(err)
	}
	disarm()
	if got := out.String(); got != "hgpartcoord: fault injection armed: drop@fleet.forward:0\n" {
		t.Errorf("log = %q", got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fasthgp"
	"fasthgp/internal/serve"
)

const testNets = `module a
module b
module c
module d
net n1 a b
net n2 b c
net n3 c d
`

func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		body := testNets + fmt.Sprintf("net extra%d a d\n", i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("c%d.nets", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// halfSplit builds an honest balanced partition (first half left) and
// its true cut for the parsed netlist.
func halfSplit(h *fasthgp.Hypergraph) (assignment []int, cut int) {
	n := h.NumVertices()
	assignment = make([]int, n)
	for v := n / 2; v < n; v++ {
		assignment[v] = 1
	}
	for e := 0; e < h.NumEdges(); e++ {
		var left, right bool
		for _, v := range h.EdgePins(e) {
			if assignment[v] == 0 {
				left = true
			} else {
				right = true
			}
		}
		if left && right {
			cut++
		}
	}
	return assignment, cut
}

// okService answers /partition with an honest half-split partition
// and its recomputed cut, and tracks jobs for the sweep.
func okService(t *testing.T) *httptest.Server {
	t.Helper()
	var seq atomic.Int64
	var mu sync.Mutex
	jobs := make(map[string]bool)
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", func(w http.ResponseWriter, r *http.Request) {
		raw := new(bytes.Buffer)
		raw.ReadFrom(r.Body)
		h, _, err := fasthgp.ReadNetlistFixed(strings.NewReader(raw.String()))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := fmt.Sprintf("j%d", seq.Add(1))
		mu.Lock()
		jobs[id] = true
		mu.Unlock()
		assignment, cut := halfSplit(h)
		json.NewEncoder(w).Encode(map[string]any{
			"job_id":     id,
			"cut":        cut,
			"assignment": assignment,
		})
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		mu.Lock()
		known := jobs[id]
		mu.Unlock()
		if !known {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"id": id, "status": "done"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestLoadRunAllInvariantsHold(t *testing.T) {
	srv := okService(t)
	corpus := writeCorpus(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", srv.URL, "-corpus", corpus,
		"-rps", "200", "-duration", "150ms", "-seed", "7",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s; stdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), `"invariants_held": true`) {
		t.Errorf("summary missing invariants_held: %s", out.String())
	}
	if strings.Contains(out.String(), `"completed": 0,`) {
		t.Errorf("no requests completed: %s", out.String())
	}
}

// TestLoadRunDetectsDrops: a service that 500s every request must
// fail the run with dropped > 0.
func TestLoadRunDetectsDrops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	corpus := writeCorpus(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", srv.URL, "-corpus", corpus,
		"-rps", "100", "-duration", "100ms",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "INVARIANT VIOLATED") {
		t.Errorf("no violation report on stderr: %s", errb.String())
	}
}

// TestLoadRunDetectsLyingService: a wrong claimed cut must fail the
// oracle check.
func TestLoadRunDetectsLyingService(t *testing.T) {
	var seq atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := new(bytes.Buffer)
		raw.ReadFrom(r.Body)
		h, _, err := fasthgp.ReadNetlistFixed(strings.NewReader(raw.String()))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		assignment, cut := halfSplit(h)
		json.NewEncoder(w).Encode(map[string]any{
			"job_id":     fmt.Sprintf("j%d", seq.Add(1)),
			"cut":        cut + 1, // a lie the oracle must catch
			"assignment": assignment,
		})
	}))
	defer srv.Close()
	corpus := writeCorpus(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", srv.URL, "-corpus", corpus,
		"-rps", "100", "-duration", "100ms",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (oracle must reject); stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), `"verify_failed"`) || strings.Contains(out.String(), `"verify_failed": 0`) {
		t.Errorf("verify_failed not reported: %s", out.String())
	}
}

func TestOracleCheckRejectsBadAssignment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixed.nets"), []byte(fixedNets), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := loadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[0]
	assignment, cut := halfSplit(e.ct.H)
	if err := e.ct.Check(serve.PartitionResponse{Cut: cut, Assignment: assignment}); err == nil {
		t.Error("answer moving the fixed module a to the left accepted")
	}
	for v := range assignment {
		assignment[v] ^= 1 // the mirror image: same cut, a on its pinned right side
	}
	if err := e.ct.Check(serve.PartitionResponse{Cut: cut, Assignment: assignment}); err != nil {
		t.Errorf("honest response rejected: %v", err)
	}
	if err := e.ct.Check(serve.PartitionResponse{Cut: cut + 1, Assignment: assignment}); err == nil {
		t.Error("wrong cut accepted")
	}
	if err := e.ct.Check(serve.PartitionResponse{Cut: 0, Assignment: []int{0}}); err == nil {
		t.Error("truncated assignment accepted")
	}
	if err := e.ct.Check(serve.PartitionResponse{Cut: 0, Assignment: []int{0, 1, 2, 0}}); err == nil {
		t.Error("out-of-range side accepted")
	}
}

// fixedNets pins module a to the right side, so halfSplit (first half
// left) puts a fixed vertex on the wrong side while its cut is true.
const fixedNets = testNets + "fixed a R\n"

// TestLoadRunDetectsMovedFixedVertex: a service that reports the true
// cut of an answer that moves a fixed vertex must fail the run — the
// check covers the fixed sides, not only the cut.
func TestLoadRunDetectsMovedFixedVertex(t *testing.T) {
	var seq atomic.Int64
	mux := http.NewServeMux() // no /jobs/ route: the sweep sees 404s, which it forgives
	mux.HandleFunc("/partition", func(w http.ResponseWriter, r *http.Request) {
		h, _, err := fasthgp.ReadNetlistFixed(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		assignment, cut := halfSplit(h) // true cut, but module a sits left
		json.NewEncoder(w).Encode(map[string]any{
			"job_id":     fmt.Sprintf("j%d", seq.Add(1)),
			"cut":        cut,
			"assignment": assignment,
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixed.nets"), []byte(fixedNets), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", srv.URL, "-corpus", dir,
		"-rps", "100", "-duration", "100ms",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (fixed side must be checked); stdout: %s", code, out.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes()[bytes.IndexByte(out.Bytes(), '{'):], &s); err != nil {
		t.Fatalf("summary: %v; stdout: %s", err, out.String())
	}
	if s.Completed == 0 || s.VerifyFailed != s.Completed || s.Dropped+s.SweepMissing != 0 {
		t.Errorf("summary = %+v, want every completed answer verify-failed and nothing else wrong", s)
	}
}

// TestChainFlagCanonicalOrRefused: -chain goes through the daemons'
// chain rule — sent in registry names, or refused before any request
// when a worker would answer 400.
func TestChainFlagCanonicalOrRefused(t *testing.T) {
	srv := okService(t)
	var mu sync.Mutex
	chains := map[string]bool{} // the chain of every /partition request
	spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/partition" {
			mu.Lock()
			chains[r.URL.Query().Get("chain")] = true
			mu.Unlock()
		}
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer spy.Close()
	corpus := writeCorpus(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-target", spy.URL, "-corpus", corpus, "-rps", "100", "-duration", "50ms",
		"-chain", "core, fm"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	mu.Lock()
	if !chains["algo1,fm"] || len(chains) != 1 {
		t.Errorf("chains sent = %v, want only algo1,fm", chains)
	}
	chains = map[string]bool{}
	mu.Unlock()
	for _, bad := range []string{"nosuch", "fm,", "fm, ,core"} {
		errb.Reset()
		if code := run([]string{"-target", spy.URL, "-corpus", corpus, "-chain", bad}, &out, &errb); code != 1 ||
			!strings.Contains(errb.String(), "-chain") {
			t.Errorf("-chain %q: exit %d, stderr %q; want 1 naming -chain", bad, code, errb.String())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(chains) != 0 {
		t.Errorf("a refused -chain still sent requests: %v", chains)
	}
}

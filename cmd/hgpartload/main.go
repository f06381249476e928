// Command hgpartload replays golden-corpus netlists against an
// hgpartd or hgpartcoord endpoint at a configurable request rate and
// asserts the fleet's chaos invariants from the outside:
//
//   - zero dropped accepted jobs: every request the service accepts
//     (i.e. does not refuse with a retryable 429/503) must complete
//     with a 200 — even while workers are being SIGKILLed mid-run;
//   - every 200 is oracle-certified by the same contract check the
//     coordinator applies: the oracle recomputes the claimed cut from
//     scratch, and every module pinned by an inline fixed directive
//     must sit on its pinned side;
//   - job ids are unique: an accepted job completes exactly once;
//   - the final /jobs/{id} sweep finds every completed job terminal
//     on the service side;
//   - optionally, the p99 request latency stays under -max-p99.
//
// Refusals (429/503) are not failures: the generator honors
// Retry-After and tries again — that is the fleet's documented
// backpressure contract. Anything else that prevents a completion
// (5xx, transport error, retry budget exhausted) counts as a dropped
// job and fails the run.
//
// The request mix is deterministic: -seed drives both the netlist
// choice per tick and the per-request engine seed, so a chaos run is
// replayable.
//
// Exit status: 0 when every invariant held, 1 otherwise (the summary
// JSON on stdout says which failed).
//
// Example:
//
//	hgpartload -target http://localhost:7070 -rps 25 -duration 15s \
//	    -corpus testdata/corpus -max-p99 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fasthgp"
	"fasthgp/internal/serve"
	"fasthgp/internal/splitmix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// corpusEntry is one replayable netlist with its parsed contract: the
// hypergraph the oracle recomputes cuts on, and the fixed sides its
// inline directives pin.
type corpusEntry struct {
	name string
	raw  string
	ct   *serve.Contract
}

// result is one request's outcome.
type result struct {
	entry    int
	jobID    string
	status   int // final HTTP status (0 = transport failure)
	err      string
	latency  time.Duration
	refusals int // 429/503 bounces absorbed along the way
	verifyOK bool
}

// summary is the machine-readable run report.
type summary struct {
	Requests     int     `json:"requests"`
	Completed    int     `json:"completed"`
	Dropped      int     `json:"dropped"`
	Refusals     int     `json:"refusals_retried"`
	VerifyFailed int     `json:"verify_failed"`
	DuplicateIDs int     `json:"duplicate_job_ids"`
	SweepMissing int     `json:"sweep_missing"`
	P50MS        int64   `json:"p50_ms"`
	P99MS        int64   `json:"p99_ms"`
	MaxP99MS     int64   `json:"max_p99_ms,omitempty"`
	RPS          float64 `json:"rps"`
	DurationMS   int64   `json:"duration_ms"`

	// ExpectQuarantined echoes -expect-quarantined; QuarantineSeen
	// reports whether the target's /stats listed that worker as
	// quarantined after the run.
	ExpectQuarantined string `json:"expect_quarantined,omitempty"`
	QuarantineSeen    bool   `json:"quarantine_seen,omitempty"`

	InvariantHeld bool `json:"invariants_held"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgpartload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "base URL of the hgpartd/hgpartcoord endpoint (required)")
		corpus   = fs.String("corpus", "testdata/corpus", "directory of *.nets netlists to replay")
		rps      = fs.Float64("rps", 20, "request rate")
		duration = fs.Duration("duration", 10*time.Second, "how long to generate load")
		seed     = fs.Int64("seed", 1, "deterministic mix seed (netlist choice + per-request engine seed)")
		starts   = fs.Int("starts", 2, "multi-start count sent with each request")
		budget   = fs.Duration("budget", 0, "per-request portfolio budget passed through (0 = server default)")
		chain    = fs.String("chain", "", "fallback chain passed through (empty = server default)")
		maxP99   = fs.Duration("max-p99", 0, "fail the run when p99 latency exceeds this (0 = no bound)")
		reqCap   = fs.Duration("req-timeout", 30*time.Second, "per-request client-side cap, refusal retries included")
		expectQ  = fs.String("expect-quarantined", "", "fail unless this worker id is quarantined on the target's /stats after the run (byzantine-drill assertion; coordinator targets only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgpartload:", err)
		return 1
	}
	if *target == "" {
		return fail(fmt.Errorf("-target is required"))
	}
	if *rps <= 0 {
		return fail(fmt.Errorf("-rps must be positive"))
	}
	// -chain follows the workers' chain rule: a name they would refuse
	// fails the run here, not as a 400 per request, and the chain is
	// sent in registry names.
	if *chain != "" {
		names, err := fasthgp.ParseChain(*chain)
		if err != nil {
			return fail(fmt.Errorf("-chain: %w", err))
		}
		*chain = strings.Join(names, ",")
	}
	entries, err := loadCorpus(*corpus)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "hgpartload: %d netlist(s) from %s, %.1f rps for %s against %s\n",
		len(entries), *corpus, *rps, *duration, *target)

	base := strings.TrimRight(*target, "/")
	client := &http.Client{Timeout: *reqCap}
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / *rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stopAt := time.Now().Add(*duration)
	for i := 0; time.Now().Before(stopAt); i++ {
		<-ticker.C
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := fire(client, base, entries, *seed, i, *starts, *budget, *chain, *reqCap)
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	s := tally(results, *maxP99, *rps, *duration)
	s.SweepMissing = sweep(client, base, results)
	quarantineOK := true
	if *expectQ != "" {
		s.ExpectQuarantined = *expectQ
		s.QuarantineSeen = quarantineSeen(client, base, *expectQ)
		quarantineOK = s.QuarantineSeen
	}
	s.InvariantHeld = s.Dropped == 0 && s.VerifyFailed == 0 && s.DuplicateIDs == 0 &&
		s.SweepMissing == 0 && quarantineOK && (*maxP99 <= 0 || s.P99MS <= maxP99.Milliseconds())

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(s)
	if !s.InvariantHeld {
		fmt.Fprintf(stderr, "hgpartload: INVARIANT VIOLATED: %d dropped, %d verify-failed, %d duplicate ids, %d missing from sweep, p99 %dms\n",
			s.Dropped, s.VerifyFailed, s.DuplicateIDs, s.SweepMissing, s.P99MS)
		if s.ExpectQuarantined != "" && !s.QuarantineSeen {
			fmt.Fprintf(stderr, "hgpartload: expected worker %q quarantined on /stats, but it was not\n", s.ExpectQuarantined)
		}
		return 1
	}
	fmt.Fprintf(stdout, "hgpartload: all invariants held: %d/%d completed (%d refusal(s) retried), p50 %dms p99 %dms\n",
		s.Completed, s.Requests, s.Refusals, s.P50MS, s.P99MS)
	return 0
}

// loadCorpus reads and parses every *.nets file under dir.
func loadCorpus(dir string) ([]corpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.nets"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var entries []corpusEntry
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		// The requests carry no epsilon or fixed parameter, so the
		// contract is the netlist and its inline fixed directives.
		req, err := serve.ParseRequest("", strings.NewReader(string(raw)), nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		entries = append(entries, corpusEntry{name: filepath.Base(p), raw: string(raw), ct: &req.Contract})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no *.nets files in %s", dir)
	}
	return entries, nil
}

// fire sends request i: pick a netlist deterministically, POST it,
// absorb refusals with their Retry-After hint, and oracle-check the
// eventual 200. Any other terminal outcome is a dropped job.
func fire(client *http.Client, base string, entries []corpusEntry, seed int64, i, starts int, budget time.Duration, chain string, reqCap time.Duration) result {
	mix := splitmix.Mix64(uint64(seed) ^ splitmix.Mix64(uint64(i)))
	e := int(mix % uint64(len(entries)))
	query := fmt.Sprintf("starts=%d&seed=%d", starts, int64(mix%1024))
	if budget > 0 {
		query += "&budget=" + budget.String()
	}
	if chain != "" {
		query += "&chain=" + chain
	}
	url := base + "/partition?" + query

	begin := time.Now()
	deadline := begin.Add(reqCap)
	res := result{entry: e}
	for {
		resp, err := client.Post(url, "text/plain", strings.NewReader(entries[e].raw))
		if err != nil {
			res.status, res.err = 0, err.Error()
			// A transport error against the service endpoint is retried
			// like a refusal: a draining listener can drop a connection
			// before the 503 makes it out.
			if time.Now().Add(200 * time.Millisecond).After(deadline) {
				res.latency = time.Since(begin)
				return res
			}
			res.refusals++
			time.Sleep(200 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		res.status = resp.StatusCode
		switch {
		case resp.StatusCode == http.StatusOK:
			res.latency = time.Since(begin)
			var pr serve.PartitionResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				res.err = "garbled 200 body: " + err.Error()
				return res
			}
			res.jobID = pr.JobID
			if err := entries[e].ct.Check(pr); err != nil {
				res.err = err.Error()
			} else {
				res.verifyOK = true
			}
			return res
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			wait := 200 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait > time.Second {
				wait = time.Second // a chaos run cannot afford 10s naps
			}
			if time.Now().Add(wait).After(deadline) {
				res.err = fmt.Sprintf("refused (%d) until the request deadline", resp.StatusCode)
				res.latency = time.Since(begin)
				return res
			}
			res.refusals++
			time.Sleep(wait)
		default:
			res.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
			res.latency = time.Since(begin)
			return res
		}
	}
}

// tally reduces the per-request results into the run summary.
func tally(results []result, p99Bound time.Duration, rps float64, duration time.Duration) summary {
	s := summary{Requests: len(results), RPS: rps, DurationMS: duration.Milliseconds(), MaxP99MS: p99Bound.Milliseconds()}
	seen := make(map[string]bool)
	var latencies []time.Duration
	for _, r := range results {
		s.Refusals += r.refusals
		if r.status != http.StatusOK {
			s.Dropped++
			continue
		}
		s.Completed++
		latencies = append(latencies, r.latency)
		if !r.verifyOK {
			s.VerifyFailed++
		}
		if r.jobID != "" {
			if seen[r.jobID] {
				s.DuplicateIDs++
			}
			seen[r.jobID] = true
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		s.P50MS = latencies[len(latencies)/2].Milliseconds()
		s.P99MS = latencies[len(latencies)*99/100].Milliseconds()
	}
	return s
}

// sweep asks the service for every completed job's terminal state: a
// job the client saw succeed must be "done" server-side too.
func sweep(client *http.Client, base string, results []result) (missing int) {
	for _, r := range results {
		if r.status != http.StatusOK || r.jobID == "" {
			continue
		}
		resp, err := client.Get(base + "/jobs/" + r.jobID)
		if err != nil {
			missing++
			continue
		}
		var info struct {
			Status string `json:"status"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		// An evicted id (404 from a bounded job table) is not a failure:
		// the client already holds the verified result. Only a tracked
		// job in a non-done state contradicts what the client observed.
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			missing++
			continue
		}
		if err := json.Unmarshal(body, &info); err != nil || info.Status != "done" {
			missing++
		}
	}
	return missing
}

// quarantineSeen asks the target's /stats whether the named worker is
// on the quarantined list. The coordinator publishes the list as it
// quarantines, so a short retry loop covers the race between the last
// invalid answer and the registry transition.
func quarantineSeen(client *http.Client, base, id string) bool {
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		resp, err := client.Get(base + "/stats")
		if err != nil {
			continue
		}
		var st struct {
			Quarantined []string `json:"quarantined"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if json.Unmarshal(body, &st) != nil {
			continue
		}
		for _, q := range st.Quarantined {
			if q == id {
				return true
			}
		}
	}
	return false
}

package main

// The service-fleet workload: hgpartcoord in front of two hgpartd
// workers, each with a write-ahead log, booted fresh on ephemeral ports
// for every run and driven by a closed loop of clients with one
// keep-alive connection each. Requests replay the golden-corpus
// netlists. Every other request cycles through a fixed set of hot
// (netlist, seed) pairs, which the worker result cache serves after
// first sight; the rest carry a fresh seed and run the partitioner.
// Every answer is checked by the verify oracle against the benchmark's
// own parse of the request.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

type fleetWorkload struct {
	name      string
	corpus    string // directory of *.nets request bodies, relative to the repository root
	workers   int
	clients   int
	hot       int // hot (netlist, seed) pairs: the first hot corpus netlists
	missEvery int // every missEvery-th request of a client misses the cache
	starts    int // multi-start count sent with every request
}

// freshSeeds offsets the engine-seed stream of cache-missing requests
// from the hot pairs' stream indices (0 … hot−1).
const freshSeeds = 1 << 32

// walSample is how many journal appends the traced run times.
const walSample = 64

type corpusEntry struct {
	name  string
	raw   []byte
	h     *hypergraph.Hypergraph
	fixed []int8
}

func loadCorpus(dir string) ([]corpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.nets"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	entries := make([]corpusEntry, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		h, fixed, err := netio.ReadFixed(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		entries = append(entries, corpusEntry{name: filepath.Base(p), raw: raw, h: h, fixed: fixed})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no *.nets files in %s", dir)
	}
	return entries, nil
}

// buildDaemons compiles hgpartd and hgpartcoord into dir.
func buildDaemons(repo, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "fasthgp/cmd/hgpartd", "fasthgp/cmd/hgpartcoord")
	cmd.Dir = filepath.Join(repo, "hgbench")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the daemons: %w", err)
	}
	return nil
}

// daemon is one started hgpartd or hgpartcoord process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	eof  chan struct{} // closed when the process's stdout reaches EOF
}

// startDaemon starts bin with env added to the environment and waits
// for it to print its listen address.
func startDaemon(bin string, env []string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs())), env...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: filepath.Base(bin), cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), ": listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.eof:
	case <-time.After(10 * time.Second):
	}
	_, _ = d.stop()
	return nil, fmt.Errorf("%s did not report a listen address", d.name)
}

// stop sends SIGTERM, kills the process if it has not exited within
// 15 s, waits for it, and returns its peak RSS in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.eof:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.eof
	}
	err := d.cmd.Wait()
	rss := 0.0
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = rssMiB(ru)
	}
	// hgpartd registers with the coordinator before it installs its
	// SIGTERM handler, so a fleet stopped right after boot can lose a
	// worker to the signal itself. That is still the stop we asked for.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		return rss, fmt.Errorf("%s: %w", d.name, err)
	}
	return rss, nil
}

// fleet is one booted coordinator with its workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
	wals    map[string]string // daemon name → WAL path
}

func (f *fleet) base() string { return "http://" + f.coord.addr }

// boot starts a fleet whose WALs live in dir and returns once the
// coordinator's /stats counts every worker.
func (fw *fleetWorkload) boot(bin, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{wals: map[string]string{}}
	wal := filepath.Join(dir, "hgpartcoord.wal")
	c, err := startDaemon(filepath.Join(bin, "hgpartcoord"), nil, "-addr", "127.0.0.1:0", "-wal", wal)
	if err != nil {
		return nil, err
	}
	f.coord, f.wals["hgpartcoord"] = c, wal
	for i := 1; i <= fw.workers; i++ {
		id := fmt.Sprintf("w%d", i)
		wal := filepath.Join(dir, "hgpartd-"+id+".wal")
		d, err := startDaemon(filepath.Join(bin, "hgpartd"), nil, "-addr", "127.0.0.1:0",
			"-coordinator", f.base(), "-worker-id", id, "-wal", wal, "-parallel", "1")
		if err != nil {
			_, _ = f.stop()
			return nil, err
		}
		f.workers = append(f.workers, d)
		f.wals["hgpartd-"+id] = wal
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st struct {
			Workers int `json:"workers"`
		}
		if getJSON(f.base()+"/stats", &st) == nil && st.Workers == fw.workers {
			return f, nil
		}
		if time.Now().After(deadline) {
			_, _ = f.stop()
			return nil, fmt.Errorf("coordinator did not see %d workers within 10 s", fw.workers)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the workers, then the coordinator, and returns their
// summed peak RSS in MiB.
func (f *fleet) stop() (float64, error) {
	var rss float64
	var errs []error
	for _, d := range f.workers {
		r, err := d.stop()
		rss += r
		errs = append(errs, err)
	}
	r, err := f.coord.stop()
	return rss + r, errors.Join(append(errs, err)...)
}

func getJSON(url string, v any) error {
	hc := http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqSpec is one request of the mix.
type reqSpec struct {
	entry int   // corpus index
	seed  int64 // engine seed
	hot   int   // hot-pair index, or -1 for a cache-missing request
}

// request returns client c's j-th request over n corpus entries. Hot
// pair k is netlist k under the pinned engine seed
// StartSeed(engineSeed, k), so the hot pairs' cuts do not depend on
// seed; the clients walk the pairs from different offsets. A
// cache-missing request draws its netlist and engine seed from seed.
func (fw *fleetWorkload) request(seed int64, n, c, j int) reqSpec {
	if j%fw.missEvery == fw.missEvery-1 {
		s := engine.StartSeed(seed, freshSeeds+fw.clients*j+c)
		return reqSpec{entry: int(uint64(s) % uint64(n)), seed: s, hot: -1}
	}
	k := (c*fw.hot/fw.clients + j - j/fw.missEvery) % fw.hot
	return reqSpec{entry: k, seed: engine.StartSeed(engineSeed, k), hot: k}
}

// outcome is one request's result.
type outcome struct {
	reqSpec
	op      int
	start   time.Duration // since the load began
	latency time.Duration
	traced  bool
	err     error
	cut     int
	assign  []int
}

// load drives the fleet for warmup+window with fw.clients closed-loop
// clients. With a tracer, request spans are recorded for alternate
// groups of missEvery requests — a whole period of the mix each — so
// trace.overhead_ratio compares like with like. With a calibrator, the
// measured window pauses every quarter second: the clients finish their
// requests in flight, the kernel runs with the fleet idle until it has
// taken its share of the window, and the load resumes. The pauses are
// returned as offsets from the load's start.
func (fw *fleetWorkload) load(base string, entries []corpusEntry, seed int64, warmup, window time.Duration,
	tr *tracer, cal *calibrator) ([]outcome, [][2]time.Duration) {
	t0 := time.Now()
	stop := t0.Add(warmup + window)
	var gate sync.RWMutex // clients hold it shared per request, the calibrator exclusively
	var pauses [][2]time.Duration
	calibrated := make(chan struct{})
	go func() {
		defer close(calibrated)
		if cal == nil {
			return
		}
		time.Sleep(warmup)
		cal.start = time.Now()
		// A pause every quarter second keeps the pauses few, so the time
		// the clients spend draining for them stays small.
		for time.Now().Before(stop) {
			time.Sleep(250 * time.Millisecond)
			gate.Lock()
			p0 := time.Since(t0)
			cal.keepUp()
			pauses = append(pauses, [2]time.Duration{p0, time.Since(t0)})
			gate.Unlock()
		}
	}()

	var ops atomic.Int64
	per := make([][]outcome, fw.clients)
	var wg sync.WaitGroup
	for c := 0; c < fw.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			hc := &http.Client{Transport: tp, Timeout: 30 * time.Second}
			for j := 0; ; j++ {
				gate.RLock()
				if !time.Now().Before(stop) {
					gate.RUnlock()
					return
				}
				r := fw.request(seed, len(entries), c, j)
				o := outcome{reqSpec: r, op: int(ops.Add(1)), start: time.Since(t0)}
				var t *tracer
				if tr != nil && (j/fw.missEvery)%2 == 0 {
					t, o.traced = tr, true
				}
				sp := t.begin(o.op, -1, "request")
				begin := time.Now()
				body, err := fw.post(hc, base, r.seed, entries[r.entry].raw)
				o.latency = time.Since(begin)
				t.end(sp)
				if err == nil {
					o.cut, o.assign, err = checkAnswer(entries[r.entry], body)
				}
				o.err = err
				gate.RUnlock()
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	<-calibrated
	var all []outcome
	for _, outs := range per {
		all = append(all, outs...)
	}
	return all, pauses
}

// overlap is the total length of the intervals within [lo, hi].
func overlap(intervals [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var total time.Duration
	for _, iv := range intervals {
		if a, b := max(iv[0], lo), min(iv[1], hi); b > a {
			total += b - a
		}
	}
	return total
}

// post sends one request; anything but a 200 is an error, refusals
// (429/503) included.
func (fw *fleetWorkload) post(hc *http.Client, base string, seed int64, body []byte) ([]byte, error) {
	url := fmt.Sprintf("%s/partition?starts=%d&seed=%d", base, fw.starts, seed)
	resp, err := hc.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// checkAnswer decodes a 200 body and verifies it.
func checkAnswer(e corpusEntry, body []byte) (int, []int, error) {
	var ans struct {
		Cut        int   `json:"cut"`
		Assignment []int `json:"assignment"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, nil, fmt.Errorf("%s: garbled 200 body: %w", e.name, err)
	}
	if err := verifyAnswer(e, ans.Assignment, ans.Cut); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", e.name, err)
	}
	return ans.Cut, ans.Assignment, nil
}

// verifyAnswer checks an assignment and its claimed cut with the oracle
// the coordinator also runs: the cut recomputed from scratch, and the
// netlist's fixed vertices on their sides.
func verifyAnswer(e corpusEntry, assign []int, cut int) error {
	n := e.h.NumVertices()
	if len(assign) != n {
		return fmt.Errorf("assignment has %d entries, the netlist %d modules", len(assign), n)
	}
	p := partition.New(n)
	for v, s := range assign {
		switch s {
		case 0:
			p.Assign(v, partition.Left)
		case 1:
			p.Assign(v, partition.Right)
		default:
			return fmt.Errorf("assignment[%d] = %d, want 0 or 1", v, s)
		}
	}
	if _, err := verify.CheckCut(e.h, p, cut); err != nil {
		return err
	}
	if e.fixed != nil {
		if _, err := verify.CheckConstraint(e.h, p, partition.Constraint{FixedSide: e.fixed}); err != nil {
			return err
		}
	}
	return nil
}

func (fw *fleetWorkload) run(o options, out io.Writer) (result, error) {
	bin := filepath.Join(o.build, "bin")
	if err := buildDaemons(o.repo, bin); err != nil {
		return result{}, err
	}
	dir := filepath.Join(o.build, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up is loading the corpus and booting a fresh fleet until the
	// coordinator counts both workers; the last of the boots serves the
	// load.
	var entries []corpusEntry
	var f *fleet
	st := newSetupTimer()
	for r := 0; r < setupReps; r++ {
		if f != nil {
			if _, err := f.stop(); err != nil {
				return result{}, err
			}
		}
		if err := st.time(func() (err error) {
			if entries, err = loadCorpus(filepath.Join(o.repo, fw.corpus)); err != nil {
				return err
			}
			f, err = fw.boot(bin, filepath.Join(dir, fmt.Sprintf("boot-%d", r)))
			return err
		}); err != nil {
			return result{}, err
		}
	}
	if len(entries) < fw.hot {
		_, _ = f.stop()
		return result{}, fmt.Errorf("%d corpus netlists, fewer than the %d hot pairs", len(entries), fw.hot)
	}

	window := time.Duration(o.seconds) * time.Second
	warmup := min(3*time.Second, window/4)
	var tr *tracer
	var cal *calibrator
	var calErr error
	if o.trace {
		tr = newTracer()
	} else {
		cal, calErr = newLoopbackCalibrator()
	}
	var outs []outcome
	var pauses [][2]time.Duration
	if calErr == nil {
		outs, pauses = fw.load(f.base(), entries, o.seed, warmup, window, tr, cal)
		calErr = cal.close()
	}

	var stats fleetStats
	statsErr := stats.fetch(f)
	rss, stopErr := f.stop()
	if err := errors.Join(calErr, statsErr, stopErr); err != nil {
		return result{}, err
	}

	failed := 0
	var lat, latTraced, latPlain []float64
	byClass := make(map[string][]float64) // hot pairs vs fresh seeds
	var windowEnd time.Duration
	hotCut := make(map[int]int)
	for _, oc := range outs {
		if oc.err != nil {
			if failed++; failed <= 5 {
				fmt.Fprintf(os.Stderr, "hgbench: %s: request seed %d: %v\n", fw.name, oc.seed, oc.err)
			}
			continue
		}
		if oc.hot >= 0 {
			if c, seen := hotCut[oc.hot]; seen && c != oc.cut {
				failed++
				fmt.Fprintf(os.Stderr, "hgbench: %s: hot pair %d answered cut %d, earlier %d\n", fw.name, oc.hot, oc.cut, c)
			}
			hotCut[oc.hot] = oc.cut
		}
		if oc.start < warmup {
			continue
		}
		l := ms(oc.latency)
		lat = append(lat, l)
		if oc.traced {
			latTraced = append(latTraced, l)
		} else {
			latPlain = append(latPlain, l)
		}
		class := "fresh"
		if oc.hot >= 0 {
			class = "hot"
		}
		byClass[class] = append(byClass[class], l)
		windowEnd = max(windowEnd, oc.start+oc.latency)
	}
	cutSum := 0
	for k := 0; k < fw.hot; k++ {
		c, ok := hotCut[k]
		if !ok {
			failed++
			fmt.Fprintf(os.Stderr, "hgbench: %s: hot pair %d was never answered\n", fw.name, k)
		}
		cutSum += c
	}
	attempted := len(outs)
	if len(byClass) < 2 {
		return result{}, fmt.Errorf("the measured window lacks cache-hitting or cache-missing requests")
	}

	if o.trace {
		values, notes, err := fw.layers(tr, dir, f, entries, outs, &stats)
		if err != nil {
			return result{}, err
		}
		values["process.peak_rss_mb"] = rss
		notes["process.peak_rss_mb"] = fmt.Sprintf("sum over the coordinator and %d workers", fw.workers)
		values["trace.overhead_ratio"] = total(latTraced) / float64(len(latTraced)) / (total(latPlain) / float64(len(latPlain)))
		notes["trace.overhead_ratio"] = fmt.Sprintf("mean latency of %d traced / %d untraced requests", len(latTraced), len(latPlain))
		spans := tr.snapshot()
		printSelfTimes(out, fw.name, selfTimes(spans))
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return result{}, err
			}
		}
		return finish(out, fw.name, values, notes, perLayer, true, attempted, failed)
	}

	paused := overlap(pauses, warmup, windowEnd)
	loaded := windowEnd - warmup - paused
	values := map[string]float64{
		"latency_ms_p50_gmean": p50Gmean(byClass),
		"latency_ms_p90":       quantile(lat, 0.9),
		"ops_per_s":            float64(len(lat)) / loaded.Seconds(),
		"cut_sum":              float64(cutSum),
	}
	notes := latencyNotes(len(lat))
	hot, fresh := byClass["hot"], byClass["fresh"]
	notes["latency_ms_p50_gmean"] = fmt.Sprintf("over hot pairs (raw p50 %.4f ms, n=%d) and fresh seeds (raw p50 %.4f ms, n=%d); pooled p50 %.4f ms raw",
		median(hot), len(hot), median(fresh), len(fresh), median(lat))
	notes["latency_ms_p99"] = fmt.Sprintf("%.4f ms raw (n=%d, %d beyond; printed, not gated)", quantile(lat, 0.99), len(lat), beyond(len(lat), 99))
	notes["ops_per_s"] = fmt.Sprintf("%d clients, closed loop, %.1f s under load after %.1f s warm-up (%.1f s of calibration pauses excluded)",
		fw.clients, loaded.Seconds(), warmup.Seconds(), paused.Seconds())
	notes["cut_sum"] = fmt.Sprintf("the %d hot (netlist, seed) pairs", fw.hot)
	notes["hgpartd.cache_hit_ratio"] = fmt.Sprintf("%.4f (%d hits of %d lookups, warm-up included)", stats.hitRatio(), stats.hits, stats.hits+stats.misses)
	cal.apply(values, notes)
	values["setup_s"], notes["setup_s"] = st.seconds(fmt.Sprintf("load corpus + boot until /stats shows %d workers", fw.workers))
	return finish(out, fw.name, values, notes, endToEnd, false, attempted, failed)
}

// fleetStats are the daemons' /stats counters after the load.
type fleetStats struct {
	forwards, rerouted, busy, hits, misses int64
}

func (s *fleetStats) fetch(f *fleet) error {
	var coord struct {
		Forwards int64 `json:"forwards"`
		Rerouted int64 `json:"rerouted"`
	}
	if err := getJSON(f.base()+"/stats", &coord); err != nil {
		return err
	}
	s.forwards, s.rerouted = coord.Forwards, coord.Rerouted
	for _, w := range f.workers {
		var st struct {
			Busy  int64 `json:"busy"`
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
		}
		if err := getJSON("http://"+w.addr+"/stats", &st); err != nil {
			return err
		}
		s.busy += st.Busy
		s.hits += st.Cache.Hits
		s.misses += st.Cache.Misses
	}
	return nil
}

func (s *fleetStats) hitRatio() float64 {
	if s.hits+s.misses == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.hits+s.misses)
}

// layers computes the per-layer metrics of a traced fleet run. It runs
// after the fleet has stopped, so every replayed time is an
// uncontended lower bound for the same call inside the daemons. Per
// answered request it replays what the daemons did with its body:
// parse and fingerprint on the coordinator and on the worker, and the
// coordinator's verification of the answer. Journal appends are timed
// on a sample and scaled to the records the daemons' WALs hold.
func (fw *fleetWorkload) layers(tr *tracer, dir string, f *fleet, entries []corpusEntry, outs []outcome, st *fleetStats) (map[string]float64, map[string]string, error) {
	values := map[string]float64{
		"hgpartd.cache_hit_ratio": st.hitRatio(),
		"hgpartd.busy":            float64(st.busy),
		"hgpartcoord.forwards":    float64(st.forwards),
		"hgpartcoord.rerouted":    float64(st.rerouted),
	}
	records := 0
	for name, path := range f.wals {
		j, recs, err := checkpoint.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("%s WAL: %w", name, err)
		}
		j.Close()
		n := len(recs) - 1 // the first record is the header
		records += n
		if name == "hgpartcoord" {
			values["hgpartcoord.wal_records"] += float64(n)
		} else {
			values["hgpartd.wal_records"] += float64(n)
		}
	}

	bytesParsed := 0
	var clientMS float64
	for _, oc := range outs {
		if oc.err != nil {
			continue
		}
		e := entries[oc.entry]
		clientMS += ms(oc.latency)
		root := tr.begin(oc.op, -1, "replay")
		for daemon := 0; daemon < 2; daemon++ {
			sp := tr.begin(oc.op, root, "netio.parse")
			h, _, err := netio.ReadFixed(bytes.NewReader(e.raw))
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			sp = tr.begin(oc.op, root, "checkpoint.fingerprint")
			checkpoint.HashHypergraph(h)
			tr.end(sp)
			bytesParsed += len(e.raw)
		}
		sp := tr.begin(oc.op, root, "verify.check")
		err := verifyAnswer(e, oc.assign, oc.cut)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
	}
	values["netio.bytes"] = float64(bytesParsed)

	perAppend, err := replayWAL(tr, filepath.Join(dir, "replay.wal"), entries)
	if err != nil {
		return nil, nil, err
	}
	sum := sumByName(tr.snapshot())
	for k, v := range spanTotals(sum) {
		values[k] = v
	}
	values["checkpoint.wal_append_ms"] = perAppend * float64(records)
	values["service.residual_ms"] = clientMS - (sum["netio.parse"] + sum["checkpoint.fingerprint"] +
		sum["verify.check"] + values["checkpoint.wal_append_ms"])
	notes := map[string]string{
		"checkpoint.wal_append_ms": fmt.Sprintf("%.4f ms per append (median of %d) x %d records", perAppend, walSample, records),
		"service.residual_ms":      "client latency minus the replayed layers: HTTP, queueing, forwarding, worker compute",
		"hgpartd.cache_hit_ratio":  fmt.Sprintf("%d hits of %d lookups", st.hits, st.hits+st.misses),
	}
	return values, notes, nil
}

// walRecord has the shape of the daemons' WAL records.
type walRecord struct {
	Type     string `json:"type"`
	JobID    string `json:"job_id"`
	Query    string `json:"query,omitempty"`
	Netlist  string `json:"netlist,omitempty"`
	Cut      int    `json:"cut,omitempty"`
	TierName string `json:"tier_name,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`
}

// replayWAL appends walSample records to a fresh journal at path — an
// "accepted" record carrying a corpus netlist and its "done" record,
// alternately, as each daemon writes them — and returns the median
// append time in ms.
func replayWAL(tr *tracer, path string, entries []corpusEntry) (float64, error) {
	j, err := checkpoint.Create(path, []byte(`{"purpose":"hgbench-replay"}`))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	root := tr.begin(-1, -1, "replay.wal")
	defer tr.end(root)
	var times []float64
	for i := 0; i < walSample; i++ {
		rec := walRecord{Type: "done", JobID: fmt.Sprintf("job-%06d", i/2), Cut: 3, TierName: "multilevel", WallMS: 1}
		if i%2 == 0 {
			e := entries[(i/2)%len(entries)]
			rec = walRecord{Type: "accepted", JobID: rec.JobID, Query: "starts=2&seed=1", Netlist: string(e.raw)}
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return 0, err
		}
		sp := tr.begin(-1, root, "checkpoint.wal_append")
		t0 := time.Now()
		err = j.Append(payload)
		times = append(times, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

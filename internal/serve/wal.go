package serve

// Write-ahead log of accepted jobs, built on the checkpoint journal's
// crash-safe frames (CRC-framed records, fsync per append, torn tail
// truncated on open) with JSON payloads. Both daemons journal every
// accepted request — job id, format, query string and netlist body —
// before running it, and its outcome when it finishes. A daemon that
// dies mid-request therefore leaves an "accepted" record with no
// terminal record; the boot replay finds those and hands them back for
// re-enqueueing, so a kill -9 loses no accepted work, and GET
// /jobs/{id} answers for jobs whose client has long since disconnected.
//
// The two daemons share one record shape. The coordinator's extra
// field (the worker that ran a job) is omitempty, so a worker's frames
// carry only the worker's keys; the header's purpose string keeps one
// daemon from replaying the other's file. A job's routing key is not
// journaled: replay decodes it again from the request (ParseRequest),
// so a key always has the current canonical form, and the
// "fingerprint" and "opts" members that older coordinators wrote are
// ignored.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/fleet"
)

// walVersion is bumped whenever the record schema changes.
const walVersion = 1

// walHeader is the journal's header payload, identifying the file.
type walHeader struct {
	Version int    `json:"version"`
	Purpose string `json:"purpose"`
}

// Record is one JSON frame. Type "accepted" carries the request itself
// (enough to re-run it); "done"/"failed" carry the outcome.
type Record struct {
	Type  string `json:"type"` // accepted | done | failed
	JobID string `json:"job_id"`

	// accepted
	Format  string `json:"format,omitempty"`
	Query   string `json:"query,omitempty"` // raw query string (chain/starts/seed/budget/epsilon/fixed)
	Netlist string `json:"netlist,omitempty"`

	// done
	Cut      int    `json:"cut,omitempty"`
	TierName string `json:"tier_name,omitempty"`
	Worker   string `json:"worker,omitempty"` // coordinator only: the worker that ran it
	Degraded bool   `json:"degraded,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`

	// failed
	Error string `json:"error,omitempty"`
}

// WAL serializes appends to the underlying journal and keeps what
// /healthz and /stats report about it: when the last record was made
// durable, the append failures, and the latest scrub. A nil *WAL is a
// disabled WAL: appends are no-ops and the reports say "wal": false.
type WAL struct {
	mu         sync.Mutex
	j          *checkpoint.Journal
	lastAppend time.Time

	errs      atomic.Int64
	lastErr   atomic.Value // string: most recent append failure
	lastScrub atomic.Pointer[checkpoint.ScrubStatus]
}

// openWAL opens (replaying) or creates the journal at path. purpose
// names the owning daemon's WAL ("hgpartd-wal"); a file written for
// another purpose or under another schema version is refused. It
// returns the replayed records in journal order.
func openWAL(path, purpose string) (*WAL, []Record, error) {
	if _, statErr := os.Stat(path); os.IsNotExist(statErr) {
		hdr, _ := json.Marshal(walHeader{Version: walVersion, Purpose: purpose})
		j, err := checkpoint.Create(path, hdr)
		if err != nil {
			return nil, nil, err
		}
		return &WAL{j: j, lastAppend: time.Now()}, nil, nil
	}
	j, records, err := checkpoint.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if len(records) == 0 {
		j.Close()
		return nil, nil, fmt.Errorf("wal: %s has no header record", path)
	}
	var hdr walHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil || hdr.Purpose != purpose {
		j.Close()
		return nil, nil, fmt.Errorf("wal: %s is not an %s WAL", path, strings.TrimSuffix(purpose, "-wal"))
	}
	if hdr.Version != walVersion {
		j.Close()
		return nil, nil, fmt.Errorf("wal: %s is version %d, this binary speaks %d", path, hdr.Version, walVersion)
	}
	var replayed []Record
	for _, raw := range records[1:] {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue // a stray record never blocks boot; frames are CRC-checked, this is schema drift
		}
		replayed = append(replayed, rec)
	}
	return &WAL{j: j, lastAppend: time.Now()}, replayed, nil
}

// restore rebuilds the job table from replayed records — job ids
// continue after the highest one seen, and every job shows its last
// journaled state — and returns the accepted records that have no
// outcome, in journal order.
func restore(jobs *fleet.JobTable, replayed []Record) (pending []Record) {
	state := make(map[string]fleet.JobInfo)
	open := make(map[string]Record)
	var order []string
	var maxSeq int64
	for _, rec := range replayed {
		if n := fleet.JobSeq(rec.JobID); n > maxSeq {
			maxSeq = n
		}
		j, seen := state[rec.JobID]
		if !seen {
			order = append(order, rec.JobID)
			j = fleet.JobInfo{ID: rec.JobID, Status: "accepted"}
		}
		switch rec.Type {
		case "accepted":
			open[rec.JobID] = rec
		case "done":
			j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", rec.Cut, rec.TierName, rec.Degraded, rec.WallMS, rec.Worker
			delete(open, rec.JobID)
		case "failed":
			j.Status, j.Error = "failed", rec.Error
			delete(open, rec.JobID)
		}
		state[rec.JobID] = j
	}
	jobs.ContinueFrom(maxSeq)
	for _, id := range order {
		jobs.Restore(state[id])
		if rec, ok := open[id]; ok {
			pending = append(pending, rec)
		}
	}
	return pending
}

// Append journals rec durably (fsynced before return). A failure never
// fails the request that caused it — the daemon trades durability for
// availability — but it is counted and reported on /healthz and
// /stats: a daemon that can serve but not journal is degraded, since a
// crash right now would lose this work.
func (w *WAL) Append(rec Record) error {
	if w == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		w.mu.Lock()
		if err = w.j.Append(payload); err == nil {
			w.lastAppend = time.Now()
		}
		w.mu.Unlock()
	}
	if err != nil {
		w.errs.Add(1)
		w.lastErr.Store(err.Error())
	}
	return err
}

// Scrub re-walks the WAL's CRC frames read-only and publishes the
// result for /healthz and /stats. It holds the append mutex so the
// scan never observes a frame mid-write — appends are fsynced under the
// same lock, so the on-disk prefix is frame-complete.
func (w *WAL) Scrub() *checkpoint.ScrubStatus {
	w.mu.Lock()
	rep, err := checkpoint.ScrubFile(w.j.Path())
	w.mu.Unlock()
	st := &checkpoint.ScrubStatus{Report: rep, At: time.Now()}
	if err != nil {
		st.Err = err.Error()
	}
	w.lastScrub.Store(st)
	return st
}

// Close closes the journal.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.j.Close()
}

// health adds the WAL block to a /healthz body and returns reasons
// extended with any WAL degradation.
func (w *WAL) health(body map[string]any, reasons []string) []string {
	if w == nil {
		body["wal"] = false
		return reasons
	}
	w.mu.Lock()
	age := time.Since(w.lastAppend)
	w.mu.Unlock()
	body["wal"] = true
	body["last_checkpoint_age_ms"] = age.Milliseconds()
	n := w.errs.Load()
	body["wal_errors"] = n
	if n > 0 {
		last, _ := w.lastErr.Load().(string)
		body["wal_last_error"] = last
		reasons = append(reasons, fmt.Sprintf("%d WAL append error(s), last: %s", n, last))
	}
	if st := w.scrubStatus(); st != nil {
		body["wal_scrub"] = st
		if !st.Healthy() {
			reasons = append(reasons, "wal scrub: "+st.Problem())
		}
	}
	return reasons
}

// stats adds the WAL counters to a /stats body.
func (w *WAL) stats(body map[string]any) {
	if w == nil {
		body["wal_errors"] = int64(0)
		return
	}
	body["wal_errors"] = w.errs.Load()
	if st := w.scrubStatus(); st != nil {
		body["wal_scrub"] = st
	}
}

// scrubStatus is a copy of the latest scrub outcome with its age
// filled in, or nil before the first scrub.
func (w *WAL) scrubStatus() *checkpoint.ScrubStatus {
	p := w.lastScrub.Load()
	if p == nil {
		return nil
	}
	st := *p
	st.AgeMS = time.Since(st.At).Milliseconds()
	return &st
}

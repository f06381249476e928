package fleet

// Handoff queue: the coordinator's ledger of accepted-but-unfinished
// jobs and the dedup memory that makes re-enqueueing safe.
//
// Every accepted job is admitted with its routing key (netlist
// fingerprint + canonical options: the literal sorted query plus the
// balance contract's key, since the fingerprint leaves out inline fixed
// directives; workers key their result caches by their options after
// defaults are applied instead) and assigned to the worker it was
// forwarded to. A
// job whose client handler is live is "attached": the handler itself
// retries on worker failure, so attached jobs are never reclaimed out
// from under it. Jobs recovered from the coordinator's WAL at boot, or
// re-enqueued after an ejection, are "detached": no handler owns them,
// and when their worker is ejected Reclaim hands them back — each job
// exactly once — for re-forwarding to survivors.
//
// Completion is remembered per key (bounded FIFO memory): a detached
// duplicate of a job that already completed — the at-least-once case,
// e.g. a WAL replay racing a synchronous retry that won — is answered
// from that memory instead of re-running, which is what "at-least-once,
// deduplicated by fingerprint+options" means operationally.

import (
	"sync"
)

// JobKey identifies a logical job: the netlist fingerprint plus the
// canonical rendering of every option that can change the result.
type JobKey struct {
	Fingerprint uint64
	Opts        string
}

// Job is one accepted-but-unfinished job tracked by the queue.
type Job struct {
	// ID is the coordinator's job id.
	ID string
	// Key is the dedup/routing key.
	Key JobKey
	// Format, Query, Netlist reproduce the original request, enough to
	// re-forward it.
	Format  string
	Query   string
	Netlist string
	// Worker is the current assignment ("" = unassigned).
	Worker string
	// Detached marks a job with no live client handler (WAL-recovered or
	// ejection-requeued); only detached jobs are reclaimed on ejection.
	Detached bool
}

// Done summarizes a completed job (what /jobs/{id} reports and what a
// deduplicated duplicate is answered with).
type Done struct {
	Cut      int
	TierName string
	Worker   string
	Degraded bool
}

// DefaultDedupMemory bounds the completed-key memory when
// NewHandoffQueue is given a non-positive capacity.
const DefaultDedupMemory = 4096

// HandoffQueue is the concurrency-safe job ledger. Construct with
// NewHandoffQueue; the zero value is not usable.
type HandoffQueue struct {
	mu       sync.Mutex
	inflight map[string]*Job            // by job id
	byWorker map[string]map[string]bool // worker -> job ids
	done     map[JobKey]Done
	order    []JobKey // FIFO eviction order for done
	cap      int

	completed int64
	reclaimed int64
	deduped   int64
}

// NewHandoffQueue returns an empty queue remembering up to dedupCap
// completed keys (<= 0 means DefaultDedupMemory).
func NewHandoffQueue(dedupCap int) *HandoffQueue {
	if dedupCap <= 0 {
		dedupCap = DefaultDedupMemory
	}
	return &HandoffQueue{
		inflight: make(map[string]*Job),
		byWorker: make(map[string]map[string]bool),
		done:     make(map[JobKey]Done),
		cap:      dedupCap,
	}
}

// Admit registers an accepted job. If the job's key already completed,
// Admit does not enqueue it and returns the remembered outcome with
// dup=true — the caller should mark the job done without running it.
// Live client requests are admitted unconditionally (dedupe is for
// detached re-enqueues; a live client wants a full response body, which
// the worker's own result cache provides cheaply).
func (q *HandoffQueue) Admit(j Job) (prev Done, dup bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.Detached {
		if d, ok := q.done[j.Key]; ok {
			q.deduped++
			return d, true
		}
	}
	job := j
	q.inflight[job.ID] = &job
	if job.Worker != "" {
		q.assignLocked(job.ID, job.Worker)
	}
	return Done{}, false
}

// Assign moves a job's current assignment to worker (retry routing
// calls this each time it picks a new candidate).
func (q *HandoffQueue) Assign(jobID, worker string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.inflight[jobID]
	if !ok {
		return
	}
	if j.Worker != "" {
		delete(q.byWorker[j.Worker], jobID)
	}
	j.Worker = worker
	q.assignLocked(jobID, worker)
}

func (q *HandoffQueue) assignLocked(jobID, worker string) {
	set, ok := q.byWorker[worker]
	if !ok {
		set = make(map[string]bool)
		q.byWorker[worker] = set
	}
	set[jobID] = true
}

// Complete records a job's outcome, remembers it under the job's key,
// and removes the job from flight. It is idempotent: only the first
// completion of a job id returns true.
func (q *HandoffQueue) Complete(jobID string, d Done) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.inflight[jobID]
	if !ok {
		return false
	}
	q.removeLocked(j)
	q.completed++
	if _, seen := q.done[j.Key]; !seen {
		if len(q.order) >= q.cap {
			delete(q.done, q.order[0])
			q.order = q.order[1:]
		}
		q.order = append(q.order, j.Key)
	}
	q.done[j.Key] = d
	return true
}

// Fail removes a job from flight without recording a completion (the
// job failed permanently; a later identical request runs afresh).
func (q *HandoffQueue) Fail(jobID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.inflight[jobID]; ok {
		q.removeLocked(j)
	}
}

func (q *HandoffQueue) removeLocked(j *Job) {
	delete(q.inflight, j.ID)
	if j.Worker != "" {
		delete(q.byWorker[j.Worker], j.ID)
	}
}

// Detach marks a job as ownerless — its client handler gave up (e.g.
// the coordinator is shutting down mid-retry) and ejection reclaim may
// now take it.
func (q *HandoffQueue) Detach(jobID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.inflight[jobID]; ok {
		j.Detached = true
	}
}

// Reclaim removes and returns the detached jobs currently assigned to
// worker — a dead worker's accepted-but-unfinished handoff set. Each
// job leaves the queue exactly once (re-Admit it to run it again).
// Attached jobs stay: their live handlers observe the worker failure
// directly and fail over themselves.
func (q *HandoffQueue) Reclaim(worker string) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Job
	for jobID := range q.byWorker[worker] {
		j := q.inflight[jobID]
		if j == nil || !j.Detached {
			continue
		}
		out = append(out, *j)
		q.removeLocked(j)
		q.reclaimed++
	}
	return out
}

// DoneFor returns the remembered outcome for key, if any.
func (q *HandoffQueue) DoneFor(key JobKey) (Done, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	d, ok := q.done[key]
	return d, ok
}

// Pending is the in-flight job count.
func (q *HandoffQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.inflight)
}

// Stats returns the queue's counters (the /healthz shape).
func (q *HandoffQueue) Stats() map[string]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return map[string]int64{
		"pending":   int64(len(q.inflight)),
		"completed": q.completed,
		"reclaimed": q.reclaimed,
		"deduped":   q.deduped,
	}
}

package fleet

// Worker registry: the roster the coordinator routes over, with two
// independent health axes.
//
// Liveness (heartbeats) is a three-state machine per worker:
//
//	active ──(silence > TTL)──> suspect ──(silence > TTL·EjectAfter)──> ejected
//	   ^                           │                                       │
//	   └──────── heartbeat ────────┴──────────── heartbeat ────────────────┘
//
// Sweep advances the machine from the injected clock and reports the
// workers that crossed into ejected on this sweep — exactly once per
// ejection — so the caller can pull them from the ring and reclaim
// their handoff jobs. A heartbeat (or re-registration) from an ejected
// worker rejoins it with no manual intervention.
//
// Request health reuses the portfolio's circuit breakers: one
// resilience.Breaker per worker, fed by Record after every forwarded
// request. A worker that answers but keeps failing trips its breaker
// and is skipped by Allow until the cooldown admits a single probe —
// breaker-style ejection without losing the worker's registration.
//
// A third, orthogonal axis — integrity quarantine for workers that
// answer promptly but *wrongly* (Byzantine workers) — lives in
// quarantine.go.

import (
	"sort"
	"sync"
	"time"

	"fasthgp/internal/resilience"
)

// WorkerState is a worker's position in the liveness state machine.
type WorkerState int

const (
	// WorkerActive is heartbeating on schedule.
	WorkerActive WorkerState = iota
	// WorkerSuspect has missed at least one heartbeat TTL; still routed.
	WorkerSuspect
	// WorkerEjected has been silent past the ejection horizon; out of
	// the rotation until it heartbeats again.
	WorkerEjected
)

// String returns the state's wire name (used verbatim in /healthz).
func (s WorkerState) String() string {
	switch s {
	case WorkerSuspect:
		return "suspect"
	case WorkerEjected:
		return "ejected"
	default:
		return "active"
	}
}

// RegistryConfig tunes the registry.
type RegistryConfig struct {
	// HeartbeatTTL is the silence that moves active to suspect
	// (values <= 0 mean 3s).
	HeartbeatTTL time.Duration
	// EjectAfter is how many TTLs of silence eject a worker
	// (values < 1 mean 3).
	EjectAfter int
	// Breakers configures the per-worker circuit breakers.
	Breakers resilience.BreakerConfig
	// Quarantine configures the integrity-quarantine axis.
	Quarantine QuarantineConfig
	// Now is the clock (nil means time.Now); injectable for tests.
	Now func() time.Time
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 3 * time.Second
	}
	if c.EjectAfter < 1 {
		c.EjectAfter = 3
	}
	c.Quarantine = c.Quarantine.withDefaults()
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// WorkerInfo is one worker's externally visible state (the /healthz
// shape).
type WorkerInfo struct {
	ID            string    `json:"id"`
	Addr          string    `json:"addr"`
	State         string    `json:"state"`
	Breaker       string    `json:"breaker"`
	LastBeat      time.Time `json:"-"`
	SilenceMS     int64     `json:"silence_ms"`
	Ejections     int64     `json:"ejections,omitempty"`
	Quarantined   bool      `json:"quarantined,omitempty"`
	Quarantines   int64     `json:"quarantines,omitempty"`
	InvalidRecent int       `json:"invalid_recent,omitempty"`
	ProbesOK      int       `json:"probes_ok,omitempty"`
}

type workerEntry struct {
	id        string
	addr      string
	state     WorkerState
	lastBeat  time.Time
	ejections int64

	// Integrity-quarantine axis (see quarantine.go).
	quarantined bool
	invalid     []time.Time // invalid-answer timestamps inside the window
	consecValid int         // consecutive verified probe answers while quarantined
	quarantines int64       // lifetime quarantine count
	lastProbe   time.Time
	probing     bool // a probe is in flight (ClaimProbe granted)
}

// Registry is the concurrency-safe worker roster. Construct with
// NewRegistry; the zero value is not usable.
type Registry struct {
	cfg      RegistryConfig
	breakers *resilience.BreakerSet

	mu      sync.Mutex
	workers map[string]*workerEntry
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	cfg = cfg.withDefaults()
	return &Registry{
		cfg:      cfg,
		breakers: resilience.NewBreakerSet(cfg.Breakers),
		workers:  make(map[string]*workerEntry),
	}
}

// Upsert registers a worker (or refreshes its address) and counts as a
// heartbeat. It reports whether this call rejoined an ejected worker —
// the signal to put it back on the ring.
func (g *Registry) Upsert(id, addr string) (rejoined bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		g.workers[id] = &workerEntry{id: id, addr: addr, state: WorkerActive, lastBeat: g.cfg.Now()}
		return false
	}
	rejoined = w.state == WorkerEjected
	w.addr = addr
	w.state = WorkerActive
	w.lastBeat = g.cfg.Now()
	return rejoined
}

// Heartbeat refreshes a worker's liveness. It reports (known, rejoined):
// known is false for an unregistered id (the worker should re-register),
// and rejoined is true when this beat brought an ejected worker back.
func (g *Registry) Heartbeat(id string) (known, rejoined bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		return false, false
	}
	rejoined = w.state == WorkerEjected
	w.state = WorkerActive
	w.lastBeat = g.cfg.Now()
	return true, rejoined
}

// Remove deletes a worker outright (graceful deregistration at drain).
func (g *Registry) Remove(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.workers[id]; !ok {
		return false
	}
	delete(g.workers, id)
	return true
}

// Sweep advances every worker's liveness state from the clock and
// returns the ids ejected by this sweep (each ejection is reported
// exactly once). Call it periodically; the interval only bounds
// detection latency, never correctness.
func (g *Registry) Sweep() (ejected []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.cfg.Now()
	for _, w := range g.workers {
		silence := now.Sub(w.lastBeat)
		switch {
		case silence > g.cfg.HeartbeatTTL*time.Duration(g.cfg.EjectAfter):
			if w.state != WorkerEjected {
				w.state = WorkerEjected
				w.ejections++
				ejected = append(ejected, w.id)
			}
		case silence > g.cfg.HeartbeatTTL:
			if w.state == WorkerActive {
				w.state = WorkerSuspect
			}
		}
	}
	sort.Strings(ejected)
	return ejected
}

// Allow reports whether a request may be routed to id now: the worker
// must be registered, not ejected, not quarantined, and its circuit
// breaker must admit the attempt. Like Breaker.Allow, a true return
// must be answered with Record or a half-open probe slot stays
// occupied.
func (g *Registry) Allow(id string) bool {
	g.mu.Lock()
	w, ok := g.workers[id]
	live := ok && w.state != WorkerEjected && !w.quarantined
	g.mu.Unlock()
	if !live {
		return false
	}
	return g.breakers.For(id).Allow()
}

// Record reports a routed request's outcome to the worker's breaker.
func (g *Registry) Record(id string, ok bool) {
	g.breakers.For(id).Record(ok)
}

// Addr returns a worker's advertised address.
func (g *Registry) Addr(id string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		return "", false
	}
	return w.addr, true
}

// State returns a worker's liveness state.
func (g *Registry) State(id string) (WorkerState, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		return 0, false
	}
	return w.state, true
}

// Len is the registered-worker count (any state).
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.workers)
}

// Snapshot returns every worker's info, sorted by id (the /healthz
// payload).
func (g *Registry) Snapshot() []WorkerInfo {
	g.mu.Lock()
	now := g.cfg.Now()
	out := make([]WorkerInfo, 0, len(g.workers))
	for _, w := range g.workers {
		state := w.state.String()
		if w.quarantined && w.state != WorkerEjected {
			state = "quarantined"
		}
		out = append(out, WorkerInfo{
			ID:            w.id,
			Addr:          w.addr,
			State:         state,
			LastBeat:      w.lastBeat,
			SilenceMS:     now.Sub(w.lastBeat).Milliseconds(),
			Ejections:     w.ejections,
			Quarantined:   w.quarantined,
			Quarantines:   w.quarantines,
			InvalidRecent: countSince(w.invalid, now.Add(-g.cfg.Quarantine.Window)),
			ProbesOK:      w.consecValid,
		})
	}
	g.mu.Unlock()
	for i := range out {
		out[i].Breaker = g.breakers.For(out[i].ID).State().String()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

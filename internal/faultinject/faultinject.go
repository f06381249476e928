// Package faultinject is a deterministic fault-injection hook for
// testing the library's recovery paths. A Plan is a list of rules, each
// naming an instrumentation point (an engine start, a portfolio tier, a
// daemon request, a fleet forward or heartbeat) and an index at that
// point, and the fault to raise there: a forced panic, artificial
// latency, result corruption, a torn write, a dropped network
// operation, or a truncated response. The
// instrumented code calls Fire / ShouldCorrupt at its points; with no
// plan installed those calls are a single atomic load and a nil
// compare, so production code pays nothing. There are no build tags —
// the same binary that serves traffic can be booted with a plan (see
// ParseSpec and the hgpartd -faultinject flag) to smoke-test its own
// recovery machinery.
//
// Plans are immutable after Install, and the active plan is swapped
// atomically, so firing is safe under -race from any number of
// goroutines. Latency jitter is derived from the plan's Seed and the
// firing index, never from the wall clock, so a given plan injects the
// same faults on every run.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fasthgp/internal/splitmix"
)

// Point names an instrumentation site.
type Point string

// The library's instrumented points.
const (
	// PointEngineStart fires before each multi-start engine start; the
	// index is the start index.
	PointEngineStart Point = "engine.start"
	// PointTierResult fires on each portfolio tier's candidate result;
	// the index is the tier index.
	PointTierResult Point = "portfolio.tier"
	// PointServeRequest fires at the top of each hgpartd partition
	// request; the index is the daemon's request counter.
	PointServeRequest Point = "hgpartd.request"
	// PointCheckpointWrite fires before each checkpoint-journal record
	// write; the index is the journal's record sequence number. A
	// KindTorn rule here makes the journal write only a prefix of the
	// record — a simulated crash mid-write — so recovery-scan
	// truncation is testable without killing the process.
	PointCheckpointWrite Point = "checkpoint.write"
	// PointCheckpointSync fires before each checkpoint-journal fsync;
	// the index is the record sequence number being made durable.
	PointCheckpointSync Point = "checkpoint.fsync"
	// PointFleetForward fires on each coordinator→worker forward
	// attempt; the index is the coordinator's forward counter. KindDrop
	// here makes the attempt fail as a dropped connection (nothing
	// sent); KindPartial makes the worker's response arrive truncated.
	PointFleetForward Point = "fleet.forward"
	// PointFleetHeartbeat fires on each worker heartbeat send; the index
	// is the worker's heartbeat counter. KindDrop here loses that beat
	// on the wire, so heartbeat-silence ejection is testable without
	// killing the worker.
	PointFleetHeartbeat Point = "fleet.heartbeat"
)

// Kind is the fault a rule raises.
type Kind int

// Fault kinds.
const (
	// KindPanic panics at the point.
	KindPanic Kind = iota
	// KindLatency sleeps at the point (Delay, jittered ±50%).
	KindLatency
	// KindCorrupt asks the caller (via ShouldCorrupt) to invalidate its
	// result at the point.
	KindCorrupt
	// KindTorn asks the caller (via ShouldTear) to tear its write at
	// the point: persist only a prefix of the record and fail, as a
	// power cut mid-write would.
	KindTorn
	// KindDrop asks the caller (via ShouldDrop) to drop its network
	// operation at the point: fail without sending, as a cut connection
	// or a lost packet would.
	KindDrop
	// KindPartial asks the caller (via ShouldPartial) to truncate the
	// response it is reading at the point — the remote died mid-reply.
	KindPartial
	// KindErrno asks the caller (via InjectedErrno) to fail its disk
	// operation at the point with the rule's Errno — a full disk
	// (ENOSPC) or a dying one (EIO) — without performing it.
	KindErrno
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindCorrupt:
		return "corrupt"
	case KindTorn:
		return "torn"
	case KindDrop:
		return "drop"
	case KindPartial:
		return "partial"
	case KindErrno:
		return "errno"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AnyIndex matches every index at a rule's point.
const AnyIndex = -1

// Rule injects one fault at one point.
type Rule struct {
	// Point is the instrumentation site.
	Point Point
	// Index selects which firing of the point faults (AnyIndex = all).
	Index int
	// Kind is the fault raised.
	Kind Kind
	// Delay is the nominal sleep of a KindLatency rule.
	Delay time.Duration
	// Errno is the error a KindErrno rule injects (ENOSPC or EIO).
	Errno syscall.Errno
}

// Plan is an immutable set of injection rules. Install it globally with
// Install; never mutate an installed plan.
type Plan struct {
	// Seed drives the deterministic latency jitter.
	Seed int64
	// Rules are matched in order; every matching rule fires.
	Rules []Rule
}

// active is the installed plan; nil means injection is disabled and
// every hook is a load-and-compare no-op.
var active atomic.Pointer[Plan]

// Install makes p the active plan and returns a function restoring the
// previous one — defer it in tests. Install(nil) disables injection.
func Install(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Enabled reports whether a plan is installed.
func Enabled() bool { return active.Load() != nil }

// PanicError is the value thrown by a KindPanic rule, so recovery
// boundaries (and tests) can recognize injected panics.
type PanicError struct {
	Point Point
	Index int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("faultinject: forced panic at %s[%d]", e.Point, e.Index)
}

// jitter maps a nominal delay to [delay/2, 3*delay/2) deterministically.
func jitter(seed int64, idx int, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	h := splitmix.Mix64(uint64(seed) ^ splitmix.Mix64(uint64(idx)))
	frac := float64(h%1024) / 1024 // [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}

// Fire raises the panic and latency faults matching (point, idx). With
// no plan installed it is a nil check. A matching KindPanic rule panics
// with a *PanicError; matching KindLatency rules sleep first, so a rule
// pair can model a slow start that then dies.
func Fire(point Point, idx int) {
	p := active.Load()
	if p == nil {
		return
	}
	for _, r := range p.Rules {
		if r.Point != point || (r.Index != AnyIndex && r.Index != idx) {
			continue
		}
		switch r.Kind {
		case KindLatency:
			time.Sleep(jitter(p.Seed, idx, r.Delay))
		case KindPanic:
			panic(&PanicError{Point: point, Index: idx})
		}
	}
}

// ShouldCorrupt reports whether a KindCorrupt rule matches (point, idx);
// the caller is responsible for actually invalidating its result.
func ShouldCorrupt(point Point, idx int) bool {
	return matches(KindCorrupt, point, idx)
}

// ShouldTear reports whether a KindTorn rule matches (point, idx); the
// caller is responsible for writing only a prefix of its record and
// reporting the write failed.
func ShouldTear(point Point, idx int) bool {
	return matches(KindTorn, point, idx)
}

// ShouldDrop reports whether a KindDrop rule matches (point, idx); the
// caller is responsible for failing its network operation without
// performing it.
func ShouldDrop(point Point, idx int) bool {
	return matches(KindDrop, point, idx)
}

// ShouldPartial reports whether a KindPartial rule matches (point, idx);
// the caller is responsible for truncating the response it reads and
// treating it as a transport failure.
func ShouldPartial(point Point, idx int) bool {
	return matches(KindPartial, point, idx)
}

// InjectedErrno returns the errno a KindErrno rule injects at
// (point, idx), if any; the caller is responsible for failing its disk
// operation with that error without performing it. With no plan
// installed it is a nil check.
func InjectedErrno(point Point, idx int) (syscall.Errno, bool) {
	p := active.Load()
	if p == nil {
		return 0, false
	}
	for _, r := range p.Rules {
		if r.Kind == KindErrno && r.Point == point && (r.Index == AnyIndex || r.Index == idx) {
			return r.Errno, true
		}
	}
	return 0, false
}

// matches reports whether any rule of the given kind covers (point, idx).
func matches(kind Kind, point Point, idx int) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	for _, r := range p.Rules {
		if r.Kind == kind && r.Point == point && (r.Index == AnyIndex || r.Index == idx) {
			return true
		}
	}
	return false
}

// ParseSpec parses a comma-separated rule list of the form
//
//	kind@point:index[=delay]
//
// e.g. "panic@engine.start:3,latency@hgpartd.request:0=2s,
// corrupt@portfolio.tier:*,errno@checkpoint.write:*=ENOSPC". The index
// "*" means AnyIndex. The =arg suffix is a time.ParseDuration string
// for latency rules (required) and an errno name (ENOSPC or EIO,
// required) for errno rules. It is the wire format of the hgpartd
// -faultinject flag and the FASTHGP_FAULTS environment variable.
func ParseSpec(spec string) (*Plan, error) {
	plan := &Plan{Seed: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(field, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: want kind@point:index", field)
		}
		var r Rule
		switch kindStr {
		case "panic":
			r.Kind = KindPanic
		case "latency":
			r.Kind = KindLatency
		case "corrupt":
			r.Kind = KindCorrupt
		case "torn":
			r.Kind = KindTorn
		case "drop":
			r.Kind = KindDrop
		case "partial":
			r.Kind = KindPartial
		case "errno":
			r.Kind = KindErrno
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown kind %q", field, kindStr)
		}
		switch r.Kind {
		case KindLatency:
			var delayStr string
			rest, delayStr, ok = strings.Cut(rest, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: rule %q: latency needs =<delay>", field)
			}
			d, err := time.ParseDuration(delayStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: rule %q: bad delay %q", field, delayStr)
			}
			r.Delay = d
		case KindErrno:
			var errnoStr string
			rest, errnoStr, ok = strings.Cut(rest, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: rule %q: errno needs =ENOSPC or =EIO", field)
			}
			switch errnoStr {
			case "ENOSPC":
				r.Errno = syscall.ENOSPC
			case "EIO":
				r.Errno = syscall.EIO
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown errno %q (want ENOSPC or EIO)", field, errnoStr)
			}
		}
		pointStr, idxStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: want kind@point:index", field)
		}
		switch Point(pointStr) {
		case PointEngineStart, PointTierResult, PointServeRequest,
			PointCheckpointWrite, PointCheckpointSync,
			PointFleetForward, PointFleetHeartbeat:
			r.Point = Point(pointStr)
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown point %q", field, pointStr)
		}
		if idxStr == "*" {
			r.Index = AnyIndex
		} else {
			i, err := strconv.Atoi(idxStr)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("faultinject: rule %q: bad index %q", field, idxStr)
			}
			r.Index = i
		}
		plan.Rules = append(plan.Rules, r)
	}
	if len(plan.Rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec %q", spec)
	}
	return plan, nil
}

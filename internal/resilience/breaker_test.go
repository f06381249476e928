package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// fakeClock is a hand-advanced clock for breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: cooldown, Now: clk.now}), clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.Record(false)
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
	}
	if !b.Allow() {
		t.Fatal("breaker rejected the tripping attempt")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt inside the cooldown")
	}
	if got := b.ConsecutiveFailures(); got != 3 {
		t.Fatalf("ConsecutiveFailures = %d, want 3", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(true)
	if got := b.ConsecutiveFailures(); got != 0 {
		t.Fatalf("ConsecutiveFailures after success = %d, want 0", got)
	}
	// The streak restarts: two more failures must not trip.
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.Allow()
	b.Record(false) // trips immediately
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt")
	}
	clk.advance(time.Minute)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	// Probe in flight: nobody else gets through.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected an attempt")
	}
}

// TestBreakerHalfOpenConcurrentSingleProbe proves the half-open
// single-probe contract under contention: with any number of callers
// racing Allow after the cooldown, exactly one probe is admitted per
// cooldown window — over several windows, and whether the probe then
// succeeds or fails. The CI resilience job runs this package with
// -race, so the table doubles as a data-race check on the probe slot.
func TestBreakerHalfOpenConcurrentSingleProbe(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		callers   int
		windows   int
		probeOK   bool
	}{
		{"failing-probes-8-callers", 1, 8, 3, false},
		{"failing-probes-64-callers", 2, 64, 5, false},
		{"succeeding-probe-32-callers", 3, 32, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, clk := newTestBreaker(tc.threshold, time.Minute)
			for i := 0; i < tc.threshold; i++ {
				if !b.Allow() {
					t.Fatalf("closed breaker rejected tripping attempt %d", i)
				}
				b.Record(false)
			}
			if got := b.State(); got != BreakerOpen {
				t.Fatalf("state after %d failures = %v, want open", tc.threshold, got)
			}
			for w := 0; w < tc.windows; w++ {
				clk.advance(time.Minute)
				var admitted atomic.Int32
				start := make(chan struct{})
				var wg sync.WaitGroup
				for c := 0; c < tc.callers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						if b.Allow() {
							admitted.Add(1)
						}
					}()
				}
				close(start)
				wg.Wait()
				if got := admitted.Load(); got != 1 {
					t.Fatalf("window %d: %d of %d concurrent callers admitted, want exactly 1 probe", w, got, tc.callers)
				}
				// While the probe is outstanding, even a sequential
				// caller stays locked out.
				if b.Allow() {
					t.Fatalf("window %d: probe slot admitted a second caller before Record", w)
				}
				b.Record(tc.probeOK)
				if tc.probeOK {
					if got := b.State(); got != BreakerClosed {
						t.Fatalf("window %d: state after successful probe = %v, want closed", w, got)
					}
					return
				}
				if got := b.State(); got != BreakerOpen {
					t.Fatalf("window %d: state after failed probe = %v, want open", w, got)
				}
				if b.Allow() {
					t.Fatalf("window %d: reopened breaker admitted a caller before a fresh cooldown", w)
				}
			}
		})
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.Allow()
	b.Record(false)
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted an attempt before a fresh cooldown")
	}
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected after the fresh cooldown")
	}
}

func TestBreakerSetSharesConfigPerName(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Now: clk.now})
	if set.For("fm") != set.For("fm") {
		t.Fatal("For returned distinct breakers for one name")
	}
	set.For("fm").Allow()
	set.For("fm").Record(false)
	if !set.For("multilevel").Allow() {
		t.Fatal("one tier's trip leaked into another tier's breaker")
	}
	states := set.States()
	if states["fm"] != "open" || states["multilevel"] != "closed" {
		t.Fatalf("States() = %v", states)
	}
}

// breakerTestHypergraph is a minimal valid instance for portfolio runs.
func breakerTestHypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdges(4, [][]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// okTier returns a trivially certified bipartition; failTier always
// errors without a candidate.
func okTier(name string, calls *int) Tier {
	return Tier{Name: name, Run: func(_ context.Context, h *hypergraph.Hypergraph, _ int64) (*partition.Bipartition, int, error) {
		if calls != nil {
			*calls++
		}
		n := h.NumVertices()
		p := partition.New(n)
		for v := 0; v < n; v++ {
			if v < n/2 {
				p.Assign(v, partition.Left)
			} else {
				p.Assign(v, partition.Right)
			}
		}
		return p, partition.CutSize(h, p), nil
	}}
}

func failTier(name string, calls *int) Tier {
	return Tier{Name: name, Run: func(context.Context, *hypergraph.Hypergraph, int64) (*partition.Bipartition, int, error) {
		if calls != nil {
			*calls++
		}
		return nil, 0, fmt.Errorf("%w: synthetic tier failure", ErrInvalidResult)
	}}
}

func TestPortfolioSkipsOpenBreaker(t *testing.T) {
	h := breakerTestHypergraph(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Now: clk.now})
	set.For("broken").Allow()
	set.For("broken").Record(false) // pre-tripped

	var brokenCalls int
	res, err := RunPortfolio(context.Background(), h,
		[]Tier{failTier("broken", &brokenCalls), okTier("fallback", nil)},
		Options{Breakers: set})
	if err != nil {
		t.Fatal(err)
	}
	if brokenCalls != 0 {
		t.Fatalf("open-breaker tier ran %d times, want 0", brokenCalls)
	}
	if res.TierName != "fallback" || !res.Degraded {
		t.Fatalf("TierName = %q, Degraded = %v; want fallback, true", res.TierName, res.Degraded)
	}
	if len(res.Tiers) != 2 || !errors.Is(res.Tiers[0].Err, ErrBreakerOpen) || res.Tiers[0].Attempts != 0 {
		t.Fatalf("skipped tier report = %+v", res.Tiers[0])
	}
}

func TestPortfolioTripsAndRecoversBreaker(t *testing.T) {
	h := breakerTestHypergraph(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	set := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute, Now: clk.now})

	// One run: the failing tier burns maxAttempts = 2 attempts — exactly
	// the threshold — and trips its breaker.
	var failCalls int
	tiers := []Tier{failTier("flaky", &failCalls), okTier("fallback", nil)}
	opts := Options{Breakers: set, BackoffBase: time.Microsecond}
	if _, err := RunPortfolio(context.Background(), h, tiers, opts); err != nil {
		t.Fatal(err)
	}
	if failCalls != 2 {
		t.Fatalf("failing tier ran %d attempts, want 2", failCalls)
	}
	if got := set.For("flaky").State(); got != BreakerOpen {
		t.Fatalf("breaker after run = %v, want open", got)
	}

	// Next run inside the cooldown: the tier is skipped.
	failCalls = 0
	if _, err := RunPortfolio(context.Background(), h, tiers, opts); err != nil {
		t.Fatal(err)
	}
	if failCalls != 0 {
		t.Fatalf("tripped tier ran %d times inside cooldown, want 0", failCalls)
	}

	// After the cooldown the half-open breaker admits exactly one probe,
	// not a full retry burst.
	clk.advance(time.Minute)
	failCalls = 0
	if _, err := RunPortfolio(context.Background(), h, tiers, opts); err != nil {
		t.Fatal(err)
	}
	if failCalls != 1 {
		t.Fatalf("half-open tier ran %d probes, want 1", failCalls)
	}
	if got := set.For("flaky").State(); got != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", got)
	}

	// A recovered tier closes the breaker through a successful probe.
	clk.advance(time.Minute)
	var okCalls int
	if res, err := RunPortfolio(context.Background(), h, []Tier{okTier("flaky", &okCalls), okTier("fallback", nil)}, opts); err != nil {
		t.Fatal(err)
	} else if res.TierName != "flaky" || res.Degraded {
		t.Fatalf("recovered tier result = %+v", res)
	}
	if got := set.For("flaky").State(); got != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
}

func TestPortfolioAllBreakersOpenExhausts(t *testing.T) {
	h := breakerTestHypergraph(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Now: clk.now})
	for _, name := range []string{"a", "b"} {
		set.For(name).Allow()
		set.For(name).Record(false)
	}
	_, err := RunPortfolio(context.Background(), h,
		[]Tier{okTier("a", nil), okTier("b", nil)}, Options{Breakers: set})
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrExhausted wrapping ErrBreakerOpen", err)
	}
}

// --- Budget-math edge cases (tierContext / tiersLeft) ---

func TestTierContextSingleTierInheritsDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	want, _ := parent.Deadline()
	tctx, tcancel := tierContext(parent, 1)
	defer tcancel()
	got, ok := tctx.Deadline()
	if !ok || !got.Equal(want) {
		t.Fatalf("single-tier deadline = %v (ok=%v), want parent's %v", got, ok, want)
	}
}

func TestTierContextNoDeadlinePassesThrough(t *testing.T) {
	tctx, tcancel := tierContext(context.Background(), 3)
	defer tcancel()
	if _, ok := tctx.Deadline(); ok {
		t.Fatal("tierContext invented a deadline the parent did not have")
	}
}

func TestTierContextSplitsRemainingEvenly(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	tctx, tcancel := tierContext(parent, 4)
	defer tcancel()
	deadline, ok := tctx.Deadline()
	if !ok {
		t.Fatal("no deadline on split context")
	}
	slice := time.Until(deadline)
	if slice > 15*time.Minute || slice < 14*time.Minute {
		t.Fatalf("slice = %v, want ~remaining/4 = 15m", slice)
	}
}

func TestTierContextZeroRemainingBudget(t *testing.T) {
	parent, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tctx, tcancel := tierContext(parent, 3)
	defer tcancel()
	if tctx.Err() == nil {
		t.Fatal("tierContext of an expired parent is not expired")
	}
	deadline, ok := tctx.Deadline()
	if !ok || deadline.After(time.Now()) {
		t.Fatalf("expired parent produced future deadline %v (ok=%v)", deadline, ok)
	}
}

func TestTiersLeftDiscountsOpenBreakers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Now: clk.now})
	tiers := []Tier{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}

	if got := tiersLeft(tiers, 0, nil); got != 4 {
		t.Fatalf("tiersLeft without breakers = %d, want 4", got)
	}
	if got := tiersLeft(tiers, 3, nil); got != 1 {
		t.Fatalf("tiersLeft at the last tier = %d, want 1", got)
	}

	set.For("b").Allow()
	set.For("b").Record(false)
	set.For("d").Allow()
	set.For("d").Record(false)
	if got := tiersLeft(tiers, 0, set); got != 2 {
		t.Fatalf("tiersLeft with b,d open = %d, want 2 (a and c)", got)
	}
	// The current tier counts even if its own breaker is open (it was
	// already admitted — e.g. as a half-open probe).
	if got := tiersLeft(tiers, 1, set); got != 2 {
		t.Fatalf("tiersLeft from open tier b = %d, want 2 (b itself and c)", got)
	}
	// Cooldown expiry turns open tiers half-open: they count again.
	clk.advance(time.Hour)
	if got := tiersLeft(tiers, 0, set); got != 4 {
		t.Fatalf("tiersLeft after cooldown = %d, want 4", got)
	}
}

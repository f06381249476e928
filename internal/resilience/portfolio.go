// Portfolio: deadline-aware fallback chains. A Portfolio runs an
// ordered chain of partitioning tiers — typically strongest first,
// cheapest last (multilevel → fm → algo1) — under one context budget,
// certifies every candidate through the verify oracle, and returns the
// best certified cut it obtained, annotated with the tier that produced
// it and whether the run had to degrade.
//
// Budget math: with R = time remaining and m = tiers not yet attempted
// (including the current one), the current attempt gets R/m. Unused
// budget rolls forward — a tier that finishes in a tenth of its slice
// leaves the rest to its successors — and the final tier always gets
// everything left. Retries recompute the slice from the then-remaining
// budget, so a retried tier cannot starve the tiers below it. Tiers
// whose circuit breaker is open (Options.Breakers) are excluded from m:
// they are about to be skipped, so their slices roll to tiers that run.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
	"fasthgp/internal/splitmix"
	"fasthgp/internal/verify"
)

// Tier is one rung of a fallback chain.
type Tier struct {
	// Name identifies the tier in reports (usually the registry name).
	Name string
	// Run executes the tier's algorithm under ctx with the given seed
	// and returns the partition it found with its claimed cutsize. It
	// must honor ctx — the portfolio derives per-tier timeouts from the
	// overall budget. A non-nil partition alongside a non-nil error is
	// treated as a best-so-far candidate and still considered.
	Run func(ctx context.Context, h *hypergraph.Hypergraph, seed int64) (*partition.Bipartition, int, error)
}

// Options configures RunPortfolio.
type Options struct {
	// Budget bounds the whole chain's wall time (0 = inherit whatever
	// deadline ctx already carries; if ctx has none, tiers run without
	// per-tier timeouts).
	Budget time.Duration
	// Seed drives the jittered per-attempt seeds; the same (chain,
	// Seed, fault plan) replays identically.
	Seed int64
	// BackoffBase is the first retry's backoff (values <= 0 mean 5ms);
	// it doubles per attempt, capped at BackoffCap (<= 0 means 100ms),
	// jittered ±50% from the attempt seed, and always bounded by the
	// remaining budget.
	BackoffBase time.Duration
	// BackoffCap caps the exponential backoff.
	BackoffCap time.Duration
	// Breakers, when non-nil, consults one circuit breaker per tier
	// name: tiers whose breaker is open are skipped without running
	// (TierReport.Err = ErrBreakerOpen, Attempts = 0) and excluded from
	// the budget split, and every attempt's outcome is recorded back.
	// Meant for long-lived callers (hgpartd) that share the set across
	// requests; one-shot runs can leave it nil.
	Breakers *BreakerSet
	// Constraint is the unified balance contract the tiers ran under.
	// When non-zero, the oracle gate certifies each candidate against it
	// (verify.CheckConstraint) in addition to the claimed cut, so a tier
	// that dropped a fixed vertex or overshot the ε bound is treated as
	// having produced no result at all.
	Constraint partition.Constraint
}

// TierReport is the portfolio's account of one attempted tier.
type TierReport struct {
	// Name is the tier's name.
	Name string
	// Attempts is how many times the tier ran (0 = budget was already
	// spent when the chain reached it).
	Attempts int
	// CutSize is the tier's certified candidate cut (-1 = none).
	CutSize int
	// Partial marks a certified candidate salvaged from a failed run
	// (the tier also reports its Err).
	Partial bool
	// Err is the tier's last failure (nil when the tier succeeded).
	Err error
	// Wall is the tier's total wall time across attempts.
	Wall time.Duration
}

// Result is a portfolio run's outcome. The partition is always
// oracle-certified: verify.Check accepted it and its CutSize.
type Result struct {
	// Partition is the best certified bipartition obtained.
	Partition *partition.Bipartition
	// CutSize is its certified cutsize.
	CutSize int
	// Tier is the index in the chain that produced it.
	Tier int
	// TierName is that tier's name.
	TierName string
	// Degraded reports that this is not the chain's first choice: the
	// winning candidate came from a lower tier or from a failed run's
	// best-so-far salvage.
	Degraded bool
	// Tiers reports every tier attempted, in chain order.
	Tiers []TierReport
}

// maxAttempts is the per-tier attempt cap for transient failures: the
// first try plus one retry.
const maxAttempts = 2

// ErrExhausted is returned (wrapped with the per-tier failures) when no
// tier produced any certified candidate.
var ErrExhausted = errors.New("resilience: every portfolio tier failed")

// ErrNoTiers is returned for an empty chain.
var ErrNoTiers = errors.New("resilience: portfolio has no tiers")

// AttemptSeed derives the seed of attempt a of tier t from the
// portfolio seed — jittered so retries explore fresh starts, pure so a
// run replays exactly.
func AttemptSeed(seed int64, tier, attempt int) int64 {
	return int64(uint64(seed) ^ splitmix.Mix64(uint64(tier)<<20|uint64(attempt)))
}

// RunPortfolio runs the fallback chain over h. The first tier to
// return an oracle-certified result ends the chain (lower tiers are
// cheaper, not better). A tier that panics or returns an invalid
// result is retried with backoff and a fresh seed while its transient
// budget lasts; a tier that exhausts its timeout is abandoned for the
// next tier. Certified best-so-far candidates salvaged from failed
// tiers are kept, and the best of them is returned (Degraded) when no
// tier fully succeeds. Only when there is no certified candidate at
// all does RunPortfolio return an error.
func RunPortfolio(ctx context.Context, h *hypergraph.Hypergraph, tiers []Tier, opts Options) (*Result, error) {
	if len(tiers) == 0 {
		return nil, ErrNoTiers
	}
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	backoffBase := opts.BackoffBase
	if backoffBase <= 0 {
		backoffBase = 5 * time.Millisecond
	}
	backoffCap := opts.BackoffCap
	if backoffCap <= 0 {
		backoffCap = 100 * time.Millisecond
	}

	res := &Result{CutSize: -1, Tier: -1}
	var failures []error
	for ti, tier := range tiers {
		report := TierReport{Name: tier.Name, CutSize: -1}
		var breaker *Breaker
		if opts.Breakers != nil {
			breaker = opts.Breakers.For(tier.Name)
		}
		backoff := backoffBase
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if ctx.Err() != nil {
				break
			}
			if breaker != nil && !breaker.Allow() {
				// Open breaker: skip the tier outright. A half-open
				// breaker whose single probe this loop already spent
				// stops retrying, keeping the probe budget at one.
				if report.Attempts == 0 {
					report.Err = ErrBreakerOpen
				}
				break
			}
			tctx, cancel := tierContext(ctx, tiersLeft(tiers, ti, opts.Breakers))
			seed := AttemptSeed(opts.Seed, ti, attempt)
			t0 := time.Now()
			p, claimed, err := runTier(tctx, tier, h, seed)
			report.Wall += time.Since(t0)
			cancel()
			report.Attempts++

			// Deterministic fault injection: corrupt this tier's
			// candidate so the oracle gate below is exercised.
			if p != nil && faultinject.ShouldCorrupt(faultinject.PointTierResult, ti) {
				p = p.Clone()
				p.Assign(0, partition.Unassigned)
			}
			// Oracle gate: only certified candidates leave this loop.
			if p != nil {
				if _, verr := verify.CheckCut(h, p, claimed); verr != nil {
					err = errors.Join(fmt.Errorf("%w (tier %s): %v", ErrInvalidResult, tier.Name, verr), err)
					p = nil
				} else if !opts.Constraint.IsZero() {
					if _, verr := verify.CheckConstraint(h, p, opts.Constraint); verr != nil {
						err = errors.Join(fmt.Errorf("%w (tier %s): %v", ErrInvalidResult, tier.Name, verr), err)
						p = nil
					}
				}
			}
			if breaker != nil {
				breaker.Record(p != nil && err == nil)
			}
			if p != nil {
				if err == nil {
					// Full success: the chain stops here.
					report.CutSize = claimed
					report.Err = nil
					res.Tiers = append(res.Tiers, report)
					res.Partition, res.CutSize = p, claimed
					res.Tier, res.TierName = ti, tier.Name
					res.Degraded = ti > 0
					return res, nil
				}
				// Salvage: a failed run still yielded a certified
				// best-so-far candidate. Keep the best across tiers.
				report.Partial = true
				if res.Partition == nil || claimed < res.CutSize {
					report.CutSize = claimed
					res.Partition, res.CutSize = p, claimed
					res.Tier, res.TierName = ti, tier.Name
				}
			}
			report.Err = err
			if !Transient(err) {
				break
			}
			if attempt+1 < maxAttempts {
				sleepBackoff(ctx, jitterBackoff(backoff, opts.Seed, ti, attempt))
				backoff *= 2
				if backoff > backoffCap {
					backoff = backoffCap
				}
			}
		}
		if report.Err != nil {
			failures = append(failures, fmt.Errorf("tier %d (%s): %w", ti, tier.Name, report.Err))
		}
		res.Tiers = append(res.Tiers, report)
	}
	if res.Partition != nil {
		res.Degraded = true
		return res, nil
	}
	return nil, errors.Join(append([]error{ErrExhausted}, failures...)...)
}

// runTier invokes one tier attempt inside a recover boundary.
func runTier(ctx context.Context, tier Tier, h *hypergraph.Hypergraph, seed int64) (p *partition.Bipartition, claimed int, err error) {
	err = Protect(tier.Name, WholeRun, func() error {
		var runErr error
		p, claimed, runErr = tier.Run(ctx, h, seed)
		return runErr
	})
	return p, claimed, err
}

// tiersLeft counts the tiers from index ti onward that are actually
// going to run: tiers whose breaker is open are about to be skipped, so
// counting them would strand budget on rungs that never execute. The
// current tier was already admitted, so the count is at least 1.
func tiersLeft(tiers []Tier, ti int, breakers *BreakerSet) int {
	n := 1
	for tj := ti + 1; tj < len(tiers); tj++ {
		if breakers == nil || breakers.For(tiers[tj].Name).State() != BreakerOpen {
			n++
		}
	}
	return n
}

// tierContext carves the current attempt's slice out of the remaining
// budget: remaining / tiersLeft, so unused time rolls forward and the
// last tier gets everything left. Without a deadline it is ctx as-is.
func tierContext(ctx context.Context, tiersLeft int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || tiersLeft <= 1 {
		return context.WithCancel(ctx)
	}
	slice := time.Until(deadline) / time.Duration(tiersLeft)
	return context.WithTimeout(ctx, slice)
}

// jitterBackoff spreads a backoff ±50% deterministically from the
// portfolio seed and the (tier, attempt) coordinates.
func jitterBackoff(d time.Duration, seed int64, tier, attempt int) time.Duration {
	if d <= 0 {
		return 0
	}
	h := splitmix.Mix64(uint64(AttemptSeed(seed, tier, attempt)))
	frac := float64(h%1024) / 1024
	return d/2 + time.Duration(frac*float64(d))
}

// sleepBackoff sleeps d or until ctx expires, whichever is first.
func sleepBackoff(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

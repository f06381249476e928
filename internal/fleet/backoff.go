package fleet

// Deterministic retry backoff. The coordinator retries a failed forward
// on the next worker in ring order; between attempts it sleeps an
// exponentially growing, jittered delay. The jitter is derived from
// (seed, attempt) with SplitMix64 — never the wall clock — so a chaos
// run with a fixed seed replays the same retry timing every time, and
// concurrent requests with different seeds don't retry in lockstep
// (no thundering herd onto a recovering worker).

import (
	"context"
	"time"

	"fasthgp/internal/splitmix"
)

// BackoffConfig shapes a retry schedule.
type BackoffConfig struct {
	// Base is the first retry's nominal delay (values <= 0 mean 25ms).
	Base time.Duration
	// Cap bounds the exponential growth (values <= 0 mean 1s).
	Cap time.Duration
	// Seed drives the deterministic jitter.
	Seed int64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 25 * time.Millisecond
	}
	if c.Cap <= 0 {
		c.Cap = time.Second
	}
	return c
}

// Delay returns attempt's backoff: Base·2^attempt capped at Cap, then
// jittered into [d/2, 3d/2) deterministically from (Seed, attempt).
// Attempt 0 is the delay before the first retry.
func (c BackoffConfig) Delay(attempt int) time.Duration {
	c = c.withDefaults()
	d := c.Base
	for i := 0; i < attempt && d < c.Cap; i++ {
		d *= 2
	}
	if d > c.Cap {
		d = c.Cap
	}
	h := splitmix.Mix64(uint64(c.Seed) ^ splitmix.Mix64(uint64(attempt)))
	frac := float64(h%1024) / 1024 // [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}

// Sleep blocks for attempt's delay or until ctx expires, whichever is
// first, and reports whether the full delay elapsed (false = give up,
// the context is gone).
func (c BackoffConfig) Sleep(ctx context.Context, attempt int) bool {
	d := c.Delay(attempt)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

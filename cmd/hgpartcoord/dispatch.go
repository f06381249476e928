package main

// Dispatch policy above the forward loop: single-flight collapse and
// hedged requests.
//
// Single-flight: concurrent live requests with the same routing key
// (netlist fingerprint + canonical options) are one computation — the
// first becomes the leader and forwards; followers wait on its flight
// and share the verified answer, each under its own job id and WAL
// records. If the leader fails while a follower's own context is still
// alive, that follower takes over and forwards itself, so a canceled
// leader never strands the queue.
//
// Hedging: when the deadline budget allows, a live request that has
// not finished after hedge-delay fires a duplicate starting at the
// failover candidate (offset 1 on the ring walk), and the first
// *verified* answer wins — the loser is canceled. Verification makes
// hedging safe against Byzantine workers (a fast lie cannot win; it
// strikes the liar and the slower honest answer is awaited) and turns
// the verification cost into tail-latency insurance. Workers dedup by
// fingerprint against their result caches, so the wasted duplicate
// work is one cache probe in the common case.

import (
	"context"
	"time"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// flight is one in-progress computation shared by all concurrent
// requests with its key.
type flight struct {
	done   chan struct{} // closed when resp/worker/err are final
	resp   serve.PartitionResponse
	worker string
	err    error
}

// dispatch routes one live (attached) request through single-flight
// collapse and hedging. Detached re-runs use the plain forward loop:
// they have no client waiting, so tail latency is irrelevant.
func (c *coord) dispatch(ctx context.Context, job fleet.Job, ct *serve.Contract, deadline time.Time) (serve.PartitionResponse, string, error) {
	for {
		c.flightMu.Lock()
		if f, ok := c.flights[job.Key]; ok {
			c.flightMu.Unlock()
			c.collapsed.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					return f.resp, f.worker, nil
				}
				// Leader failed (possibly just canceled by its own
				// client). Loop: become the leader or join a newer
				// flight, while our context allows.
				if ctx.Err() != nil {
					return serve.PartitionResponse{}, "", ctx.Err()
				}
				continue
			case <-ctx.Done():
				return serve.PartitionResponse{}, "", ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[job.Key] = f
		c.flightMu.Unlock()

		resp, worker, err := c.forwardHedged(ctx, job, ct, deadline)

		f.resp, f.worker, f.err = resp, worker, err
		c.flightMu.Lock()
		delete(c.flights, job.Key)
		c.flightMu.Unlock()
		close(f.done)
		return resp, worker, err
	}
}

// forwardHedged runs the forward loop, firing one delayed duplicate at
// the failover candidate when the budget allows. First verified answer
// wins; the loser is canceled.
func (c *coord) forwardHedged(ctx context.Context, job fleet.Job, ct *serve.Contract, deadline time.Time) (serve.PartitionResponse, string, error) {
	// No hedging configured, not enough budget for a meaningful
	// duplicate, or nobody to hedge to: plain forward.
	if c.cfg.hedgeDelay <= 0 || time.Until(deadline) < 2*c.cfg.hedgeDelay || c.ring.Len() < 2 {
		return c.forward(ctx, job, ct, deadline)
	}

	type outcome struct {
		resp   serve.PartitionResponse
		worker string
		err    error
		hedge  bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, 2)
	inFlight := 1
	go func() {
		r, w, e := c.forwardFrom(hctx, job, ct, deadline, 0)
		results <- outcome{r, w, e, false}
	}()
	timer := time.NewTimer(c.cfg.hedgeDelay)
	defer timer.Stop()

	var firstErr error
	for {
		select {
		case <-timer.C:
			c.hedges.Add(1)
			inFlight++
			go func() {
				r, w, e := c.forwardFrom(hctx, job, ct, deadline, 1)
				results <- outcome{r, w, e, true}
			}()
			timer.Stop()
		case o := <-results:
			if o.err == nil {
				if o.hedge {
					c.hedgeWins.Add(1)
				}
				cancel() // the loser stops retrying immediately
				return o.resp, o.worker, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			inFlight--
			if inFlight == 0 {
				// Both runners failed (or the only runner failed before
				// the hedge timer — stop waiting for a timer that would
				// hedge a finished race).
				return serve.PartitionResponse{}, "", firstErr
			}
		}
	}
}

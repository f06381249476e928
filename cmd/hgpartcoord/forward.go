package main

// Forwarding: consistent-hash routing with breaker-aware failover,
// jittered retry backoff, and deadline propagation.
//
// A job's candidate order is the ring's preference list for its
// netlist fingerprint — the same fingerprint the workers key their
// result caches by, so repeat requests land on the worker that already
// holds the answer (cache affinity), and a retry of a re-forwarded
// duplicate hits the survivor's cache instead of recomputing. Workers
// whose breaker is open, whose liveness state is ejected, or who sit in
// integrity quarantine are skipped; a transport error or worker 5xx
// records a breaker failure and moves to the next candidate after a
// jittered backoff; a worker 429/503 (busy or draining) moves on
// without a breaker mark — refusing work politely is healthy behavior.
// A 4xx is permanent: the request itself is bad, and the worker's
// verdict is proxied to the client verbatim.
//
// Every 200 is oracle-verified (verify.go) before it wins: an answer
// the oracle rejects — or a 200 whose body does not even parse, a
// corrupt frame — charges the worker an integrity strike and fails
// over exactly like a transport error. The strike axis is deliberately
// separate from the breaker: the transport worked, so the breaker sees
// a success, while the quarantine machine counts the lie.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// permanentError carries a worker's 4xx verdict: the request itself is
// bad and no amount of retrying will change that.
type permanentError struct {
	status int
	body   string
}

func (e *permanentError) Error() string {
	return fmt.Sprintf("worker answered %d: %s", e.status, e.body)
}

// forward routes one job across the fleet until a worker answers with
// a verified result, the deadline passes, or a worker rules the
// request permanently bad. It returns the winning worker's response
// and id.
func (c *coord) forward(ctx context.Context, job fleet.Job, ct *serve.Contract, deadline time.Time) (serve.PartitionResponse, string, error) {
	return c.forwardFrom(ctx, job, ct, deadline, 0)
}

// forwardFrom is forward with the candidate walk rotated by offset, so
// a hedge starts at the failover worker instead of colliding with the
// primary attempt on the same candidate.
func (c *coord) forwardFrom(ctx context.Context, job fleet.Job, ct *serve.Contract, deadline time.Time, offset int) (serve.PartitionResponse, string, error) {
	var lastErr error = fmt.Errorf("no workers registered")
	for attempt := 0; attempt < c.cfg.retries; attempt++ {
		if ctx.Err() != nil {
			return serve.PartitionResponse{}, "", fmt.Errorf("deadline exhausted after %d attempt(s): %w", attempt, lastErr)
		}
		worker, ok := c.pickWorker(job.Key.Fingerprint, attempt+offset)
		if !ok {
			// Nobody routable right now (empty fleet, everyone ejected,
			// quarantined, or breaker-open). Back off and re-look: a
			// heartbeat can rejoin a worker, a cooldown can admit a
			// probe, a verified probe streak can lift a quarantine.
			if !c.cfg.backoff.Sleep(ctx, attempt) {
				return serve.PartitionResponse{}, "", fmt.Errorf("deadline exhausted waiting for a routable worker: %w", lastErr)
			}
			continue
		}
		c.handoff.Assign(job.ID, worker)
		if attempt > 0 {
			c.rerouted.Add(1)
		}
		resp, err := c.forwardOnce(ctx, worker, job, deadline)
		if err == nil {
			if verr := ct.Check(resp); verr != nil {
				// The transport worked; the answer is a lie. Success on
				// the breaker axis, a strike on the integrity axis, and
				// the answer is never delivered — fail over.
				c.registry.Record(worker, true)
				c.strike(worker, verr)
				lastErr = fmt.Errorf("%s: %w", worker, verr)
				if !c.cfg.backoff.Sleep(ctx, attempt) {
					return serve.PartitionResponse{}, "", fmt.Errorf("deadline exhausted after %d attempt(s): %w", attempt+1, lastErr)
				}
				continue
			}
			c.registry.Record(worker, true)
			c.verified.Add(1)
			return resp, worker, nil
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			// Canceled from above — the hedge rival already won, or the
			// client vanished. Not the worker's fault on any axis.
			c.registry.Record(worker, true)
			return serve.PartitionResponse{}, "", fmt.Errorf("forward canceled: %w", ctx.Err())
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// The worker answered authoritatively; it is healthy.
			c.registry.Record(worker, true)
			return serve.PartitionResponse{}, "", err
		}
		var garbled *garbledError
		if errors.As(err, &garbled) {
			// A 200 whose body does not parse is a corrupt frame: the
			// transport delivered it, so no breaker penalty, but the
			// integrity axis counts it like an oracle rejection.
			c.registry.Record(worker, true)
			c.strike(worker, err)
		} else if isRefusal(err) {
			// 429/503: busy or draining, not broken. No breaker mark.
			c.registry.Record(worker, true)
		} else {
			c.registry.Record(worker, false)
		}
		lastErr = fmt.Errorf("%s: %w", worker, err)
		if !c.cfg.backoff.Sleep(ctx, attempt) {
			return serve.PartitionResponse{}, "", fmt.Errorf("deadline exhausted after %d attempt(s): %w", attempt+1, lastErr)
		}
	}
	return serve.PartitionResponse{}, "", fmt.Errorf("all %d attempt(s) failed: %w", c.cfg.retries, lastErr)
}

// pickWorker walks the ring's preference order for key and returns the
// first worker the registry will route to, rotated by attempt so a
// retry prefers the next candidate over re-hitting the one that just
// failed (its breaker may not have tripped yet).
func (c *coord) pickWorker(key uint64, attempt int) (string, bool) {
	candidates := c.ring.Lookup(key, c.ring.Len())
	if len(candidates) == 0 {
		return "", false
	}
	for i := 0; i < len(candidates); i++ {
		id := candidates[(attempt+i)%len(candidates)]
		if c.registry.Allow(id) {
			return id, true
		}
	}
	return "", false
}

// refusalError marks a worker 429/503: retry elsewhere, no breaker
// penalty.
type refusalError struct{ status int }

func (e *refusalError) Error() string { return fmt.Sprintf("worker busy (HTTP %d)", e.status) }

func isRefusal(err error) bool {
	var r *refusalError
	return errors.As(err, &r)
}

// garbledError marks a 200 whose body failed to parse — a corrupt
// frame, charged to the worker's integrity record.
type garbledError struct{ err error }

func (e *garbledError) Error() string { return fmt.Sprintf("garbled worker response: %v", e.err) }
func (e *garbledError) Unwrap() error { return e.err }

// forwardOnce sends the job to one worker, honoring the fault-injection
// points that shape network failures: a drop rule fails the attempt
// without sending, a partial rule truncates the response mid-read.
func (c *coord) forwardOnce(ctx context.Context, worker string, job fleet.Job, deadline time.Time) (serve.PartitionResponse, error) {
	addr, ok := c.registry.Addr(worker)
	if !ok {
		return serve.PartitionResponse{}, fmt.Errorf("worker %s vanished from the registry", worker)
	}
	idx := int(c.fwdCounter.Add(1) - 1)
	faultinject.Fire(faultinject.PointFleetForward, idx)
	if faultinject.ShouldDrop(faultinject.PointFleetForward, idx) {
		return serve.PartitionResponse{}, fmt.Errorf("injected connection drop (forward %d)", idx)
	}

	target := "http://" + addr + "/partition"
	if job.Query != "" {
		target += "?" + job.Query
	}
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, target, strings.NewReader(job.Netlist))
	if err != nil {
		return serve.PartitionResponse{}, err
	}
	req.Header.Set("X-Request-Deadline", strconv.FormatInt(deadline.UnixMilli(), 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.PartitionResponse{}, err
	}
	defer resp.Body.Close()

	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.maxBody+1<<20))
	if err != nil {
		return serve.PartitionResponse{}, fmt.Errorf("reading worker response: %w", err)
	}
	if faultinject.ShouldPartial(faultinject.PointFleetForward, idx) {
		body = body[:len(body)/2] // the worker died mid-reply
	}
	if faultinject.ShouldCorrupt(faultinject.PointFleetForward, idx) && len(body) > 0 {
		// Deterministic rot on the wire. The first byte, not a middle
		// one: JSON decoders coerce invalid UTF-8 inside strings without
		// erroring, so a mid-body flip can be semantically invisible —
		// breaking the leading structural byte is always detectable.
		body[0] ^= 0xFF
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		var wr serve.PartitionResponse
		if err := json.Unmarshal(body, &wr); err != nil {
			// Truncated or garbled reply: retryable, and charged as a
			// corrupt frame on the integrity axis by the forward loop.
			return serve.PartitionResponse{}, &garbledError{err: err}
		}
		return wr, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return serve.PartitionResponse{}, &refusalError{status: resp.StatusCode}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return serve.PartitionResponse{}, &permanentError{status: resp.StatusCode, body: string(body)}
	default:
		return serve.PartitionResponse{}, fmt.Errorf("worker answered HTTP %d", resp.StatusCode)
	}
}

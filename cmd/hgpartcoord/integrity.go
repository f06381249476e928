package main

// Integrity bookkeeping: quarantine strikes and readmission probes.
//
// Probes: a quarantined worker is excluded from routing, so it can
// never redeem itself through client traffic. Each sweep the
// coordinator claims at most one probe slot per quarantined worker
// (spaced by the registry's probe interval) and replays the most
// recent verified job directly to it, off the request path. The oracle
// judges the probe answer like any other; the registry readmits the
// worker after the configured streak of verified probes. Probe
// material is whatever verified last — it needs no freshness, only a
// known-checkable request, and the worker's result cache makes
// repeated probes nearly free for an honest worker.

import (
	"context"
	"fmt"
	"time"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// strike charges one invalid answer (oracle-rejected or corrupt frame)
// to a worker and logs the quarantine transition when it tips.
func (c *coord) strike(worker string, cause error) {
	c.invalid.Add(1)
	if c.registry.RecordInvalid(worker) {
		c.quarantines.Add(1)
		fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s quarantined: invalid answers (last: %v)\n", worker, cause)
	}
}

// probeMaterial is a known-verifiable request kept for quarantine
// probes: the last job whose answer passed the oracle.
type probeMaterial struct {
	job fleet.Job
	ct  *serve.Contract
}

// keepProbeMaterial remembers a verified job as future probe material.
func (c *coord) keepProbeMaterial(job fleet.Job, ct *serve.Contract) {
	c.probeMat.Store(&probeMaterial{job: job, ct: ct})
}

// probeQuarantined claims probe slots for quarantined workers and
// launches one probe goroutine per claim. Called from the sweep loop.
func (c *coord) probeQuarantined() {
	mat := c.probeMat.Load()
	if mat == nil {
		return // nothing verified yet; nothing checkable to replay
	}
	for _, id := range c.registry.QuarantinedIDs() {
		if !c.registry.ClaimProbe(id) {
			continue // in flight or inside the spacing interval
		}
		go c.probeWorker(id, mat)
	}
}

// probeWorker replays the probe job to one quarantined worker and
// reports the oracle's verdict to the registry.
func (c *coord) probeWorker(id string, mat *probeMaterial) {
	c.probes.Add(1)
	deadline := time.Now().Add(c.cfg.reqTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	resp, err := c.forwardOnce(ctx, id, mat.job, deadline)
	valid := err == nil && mat.ct.Check(resp) == nil
	if c.registry.RecordProbe(id, valid) {
		c.readmitted.Add(1)
		fmt.Fprintf(c.Stdout, "hgpartcoord: worker %s readmitted after verified probes\n", id)
	}
}

package main

// Answer verification: the coordinator's trust boundary. A worker
// answer is never delivered to a client, cached in the handoff queue's
// completion memory, or journaled as done until the verification oracle
// has recomputed its claimed cut from scratch (O(pins), from the raw
// netlist bytes the coordinator already holds) and re-checked the
// balance/fixed constraint the request asked for. A worker that fails
// the check is charged an integrity strike (see internal/fleet
// quarantine.go) and the job fails over to the next ring candidate —
// a Byzantine worker can waste our time, never corrupt an answer.
//
// The contract is parsed by serve.ParseContract, the same code hgpartd
// solves from, so the verified contract is the solved contract.

import (
	"net/url"
	"strings"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// contractForJob rebuilds the contract for a WAL-recovered or
// reclaimed job from its stored raw request.
func contractForJob(job fleet.Job) (*serve.Contract, error) {
	q, err := url.ParseQuery(job.Query)
	if err != nil {
		return nil, err
	}
	return serve.ParseContract(job.Format, strings.NewReader(job.Netlist), q)
}

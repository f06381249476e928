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
// The contract is decoded by serve.ParseRequest, the same code hgpartd
// solves from, so the verified contract is the solved contract.

import (
	"net/url"
	"strings"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// requestForJob decodes a WAL-recovered or reclaimed job's stored raw
// request again, with no defaults: the coordinator cannot know a
// worker's, so its keys leave an unset option apart from any explicit
// value. A request that no longer decodes (schema drift across a
// version boundary) fails its job permanently: it is never served
// unverified.
func requestForJob(job fleet.Job) (*serve.Request, error) {
	q, err := url.ParseQuery(job.Query)
	if err != nil {
		return nil, err
	}
	return serve.ParseRequest(job.Format, strings.NewReader(job.Netlist), q, nil)
}

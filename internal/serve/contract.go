package serve

// The request contract: what a POST /partition asks for, what a 200
// answers, and how an answer is judged. hgpartd solves the contract,
// the coordinator re-checks every worker answer against it before
// delivery, and hgpartload checks every answer it receives — all three
// through the code below, so the verified contract is the solved
// contract.
//
// Degraded portfolio answers also satisfy the constraint — every tier's
// candidate is certified before the daemon returns it — so the check
// applies unconditionally.

import (
	"fmt"
	"io"
	"net/url"
	"strconv"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

// PartitionResponse is the JSON body of a successful POST /partition.
// Worker is set only by the coordinator, naming the worker that ran
// the job; JobID is always the id of the answering daemon.
type PartitionResponse struct {
	JobID      string `json:"job_id"`
	Modules    int    `json:"modules"`
	Nets       int    `json:"nets"`
	Cut        int    `json:"cut"`
	Tier       int    `json:"tier"`
	TierName   string `json:"tier_name"`
	Degraded   bool   `json:"degraded"`
	Assignment []int  `json:"assignment"` // side of module v: 0 = left, 1 = right
	WallMS     int64  `json:"wall_ms"`
	Worker     string `json:"worker,omitempty"`
}

// Contract is one request's netlist and the balance constraint it asks
// for: the inline fixed directives, overridden by the fixed query
// parameter, plus epsilon.
type Contract struct {
	H          *hypergraph.Hypergraph
	Constraint partition.Constraint
}

// ParseContract parses a request body in the named wire format ("" or
// "nets", with inline fixed directives; or "hgr") and its query into
// the contract. An error means the request itself is bad (HTTP 400).
func ParseContract(format string, body io.Reader, q url.Values) (*Contract, error) {
	var (
		h     *hypergraph.Hypergraph
		fixed []int8
		err   error
	)
	switch format {
	case "", "nets":
		h, fixed, err = netio.ReadFixed(body)
	case "hgr":
		h, err = netio.ParseHMetisStream(body)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return nil, err
	}
	c := partition.Constraint{FixedSide: fixed}
	if v := q.Get("epsilon"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || eps < 0 {
			return nil, fmt.Errorf("bad epsilon %q", v)
		}
		c.Epsilon = eps
	}
	if v := q.Get("fixed"); v != "" {
		if c.FixedSide, err = netio.ParseFixedSpec(v, h.NumVertices()); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(h.NumVertices(), 2); err != nil {
		return nil, err
	}
	return &Contract{H: h, Constraint: c}, nil
}

// Check judges one answer against the contract: the assignment must
// cover every module with a valid side, the oracle must recompute
// exactly the claimed cut from scratch, and the answer must satisfy the
// constraint.
func (c *Contract) Check(resp PartitionResponse) error {
	n := c.H.NumVertices()
	if len(resp.Assignment) != n {
		return fmt.Errorf("assignment has %d entries, netlist has %d modules", len(resp.Assignment), n)
	}
	p := partition.New(n)
	for v, side := range resp.Assignment {
		switch side {
		case 0:
			p.Assign(v, partition.Left)
		case 1:
			p.Assign(v, partition.Right)
		default:
			return fmt.Errorf("assignment[%d] = %d, want 0 or 1", v, side)
		}
	}
	if _, err := verify.CheckCut(c.H, p, resp.Cut); err != nil {
		return fmt.Errorf("oracle rejected the cut: %w", err)
	}
	if !c.Constraint.IsZero() {
		if _, err := verify.CheckConstraint(c.H, p, c.Constraint); err != nil {
			return fmt.Errorf("oracle rejected the constraint: %w", err)
		}
	}
	return nil
}

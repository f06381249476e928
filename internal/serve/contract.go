package serve

// The request contract: what a POST /partition asks for, what a 200
// answers, and how an answer is judged. ParseRequest is the one decoder
// of a request: hgpartd solves what it decodes and keys its result
// cache on it, the coordinator keys its flights on it and re-checks
// every worker answer against it before delivery, and hgpartload
// checks every answer it receives against it — so the verified
// contract is the solved contract, and a request that one door refuses
// is refused by all of them.
//
// Degraded portfolio answers also satisfy the constraint — every tier's
// candidate is certified before the daemon returns it — so the check
// applies unconditionally.

import (
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fasthgp"
	"fasthgp/internal/checkpoint"
	"fasthgp/internal/fleet"
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

// Request is one decoded POST /partition: its contract, and the
// portfolio run it asks for.
type Request struct {
	Contract
	// Options is the query's chain (in registry names), starts, seed and
	// budget over the decoder's defaults, with the contract's
	// constraint.
	Options fasthgp.PortfolioOptions
	// known marks the options Key renders: all four when the decoder had
	// defaults, else only those the query set.
	known uint8
}

// The options a Request's query can set.
const (
	knowChain = 1 << iota
	knowStarts
	knowSeed
	knowBudget
	knowAll = knowChain | knowStarts | knowSeed | knowBudget
)

// ParseRequest decodes a POST /partition: the body in the named wire
// format ("" or "nets", with inline fixed directives; or "hgr"), and
// from q the constraint (epsilon, fixed) and the portfolio options
// (chain, starts, seed, budget). An option the query leaves unset takes
// its value from defaults; with nil defaults it stays unset, and Key
// leaves it out. An error means the request itself is bad (HTTP 400).
func ParseRequest(format string, body io.Reader, q url.Values, defaults *fasthgp.PortfolioOptions) (*Request, error) {
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

	r := &Request{Contract: Contract{H: h, Constraint: c}}
	var chain string
	if defaults != nil {
		r.Options, r.known = *defaults, knowAll
		chain = strings.Join(defaults.Chain, ",")
	}
	r.Options.Constraint = c
	if v := q.Get("chain"); v != "" {
		chain, r.known = v, r.known|knowChain
	}
	if r.known&knowChain != 0 {
		if r.Options.Chain, err = fasthgp.ParseChain(chain); err != nil {
			return nil, fmt.Errorf("bad chain %q: %w", chain, err)
		}
	}
	if v := q.Get("starts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad starts %q", v)
		}
		r.Options.Starts, r.known = n, r.known|knowStarts
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", v)
		}
		r.Options.Seed, r.known = n, r.known|knowSeed
	}
	if v := q.Get("budget"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad budget %q", v)
		}
		r.Options.Budget, r.known = d, r.known|knowBudget
	}
	return r, nil
}

// Key is the request's canonical key, which hgpartd caches results
// under and the coordinator collapses flights and dedups on: the
// netlist fingerprint, and in one fixed form every other value that
// can change the answer — the chain in registry names, starts, seed,
// budget, and the constraint's key (epsilon and the fixed vertices,
// from the query or inline directives, which the fingerprint leaves
// out). So ?chain=core,fm and ?chain=algo1,fm share a key, and so do
// an absent option and its default spelled out when the decoder had
// defaults. Parallelism and breakers are left out: they never change
// the answer.
func (r *Request) Key() fleet.JobKey {
	var b strings.Builder
	if r.known&knowChain != 0 {
		fmt.Fprintf(&b, "chain=%s ", strings.Join(r.Options.Chain, ","))
	}
	if r.known&knowStarts != 0 {
		fmt.Fprintf(&b, "starts=%d ", r.Options.Starts)
	}
	if r.known&knowSeed != 0 {
		fmt.Fprintf(&b, "seed=%d ", r.Options.Seed)
	}
	if r.known&knowBudget != 0 {
		fmt.Fprintf(&b, "budget=%s ", r.Options.Budget)
	}
	fmt.Fprintf(&b, "constraint=%q", r.Constraint.Key())
	return fleet.JobKey{Fingerprint: checkpoint.HashHypergraph(r.H), Opts: b.String()}
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

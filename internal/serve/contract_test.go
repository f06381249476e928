package serve

import (
	"errors"
	"net/url"
	"strings"
	"testing"
	"time"

	"fasthgp"
	"fasthgp/internal/fleet"
)

// path4 is a 4-module path a-b-c-d with a pinned left and d right.
const path4 = "module a\nmodule b\nmodule c\nmodule d\nnet n1 a b\nnet n2 b c\nnet n3 c d\nfixed a L\nfixed d R\n"

func mustRequest(t *testing.T, format, body, query string, defaults *fasthgp.PortfolioOptions) *Request {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseRequest(format, strings.NewReader(body), q, defaults)
	if err != nil {
		t.Fatalf("ParseRequest(%q, %q): %v", format, query, err)
	}
	return r
}

func mustContract(t *testing.T, format, body, query string) *Contract {
	t.Helper()
	return &mustRequest(t, format, body, query, nil).Contract
}

func TestParseContractConstraint(t *testing.T) {
	c := mustContract(t, "", path4, "")
	if got := c.Constraint.FixedSide; len(got) != 4 || got[0] != 0 || got[3] != 1 || got[1] != -1 {
		t.Errorf("inline fixed sides = %v, want [0 -1 -1 1]", got)
	}
	// The fixed query parameter overrides the inline directives.
	c = mustContract(t, "nets", path4, "fixed=1:0&epsilon=0.5")
	if got := c.Constraint.FixedSide; got[0] != -1 || got[1] != 0 || got[3] != -1 {
		t.Errorf("query fixed sides = %v, want only b pinned left", got)
	}
	if c.Constraint.Epsilon != 0.5 {
		t.Errorf("epsilon = %v", c.Constraint.Epsilon)
	}
	if c = mustContract(t, "hgr", "3 4\n1 2\n2 3\n3 4\n", ""); c.H.NumVertices() != 4 || !c.Constraint.IsZero() {
		t.Errorf("hgr contract: %d modules, constraint %+v", c.H.NumVertices(), c.Constraint)
	}

	for _, tc := range []struct{ format, body, query string }{
		{"xml", path4, ""},
		{"", "frobnicate\n", ""},
		{"", path4, "epsilon=-1"},
		{"", path4, "epsilon=lots"},
		{"", path4, "fixed=9:0"},
		{"", path4, "chain=nosuch"},
		{"", path4, "chain=fm,"},
		{"", path4, "chain=fm,%20,core"},
		{"", path4, "starts=abc"},
		{"", path4, "starts=0"},
		{"", path4, "seed=x"},
		{"", path4, "budget=-1s"},
		{"", path4, "budget=soon"},
	} {
		q, _ := url.ParseQuery(tc.query)
		// Refused with or without defaults: the door that decodes first
		// refuses what every later door would.
		for _, defaults := range []*fasthgp.PortfolioOptions{nil, {Starts: 8, Seed: 1}} {
			if _, err := ParseRequest(tc.format, strings.NewReader(tc.body), q, defaults); err == nil {
				t.Errorf("format %q query %q body %q defaults %v: accepted", tc.format, tc.query, tc.body, defaults)
			}
		}
	}
	q, _ := url.ParseQuery("chain=nosuch")
	if _, err := ParseRequest("", strings.NewReader(path4), q, nil); !errors.Is(err, fasthgp.ErrUnknownAlgorithm) {
		t.Errorf("unknown chain name: err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestRequestKey: two requests share a key exactly when they ask for
// the same run — aliases, spellings and spelled-out defaults collapse,
// and every value that changes the answer keeps requests apart. With
// no defaults (the coordinator, which cannot know a worker's), an
// unset option stays apart from any explicit value.
func TestRequestKey(t *testing.T) {
	defaults := &fasthgp.PortfolioOptions{Starts: 8, Seed: 1, Budget: 30 * time.Second, Parallelism: 2}
	key := func(query string, d *fasthgp.PortfolioOptions) fleet.JobKey {
		return mustRequest(t, "", path4, query, d).Key()
	}
	for _, pair := range [][2]string{
		{"chain=core,fm", "chain=algo1,fm"},
		{"chain=sa, flow", "chain=anneal,flowpart"},
		{"starts=2", "starts=02"},
		{"budget=1s", "budget=1000ms"},
		{"epsilon=0.1", "epsilon=0.10"},
		{"fixed=0:L,3:R", "fixed=3:1,0:0"},
		{"seed=3&starts=2", "starts=2&seed=3&format=nets"},
		{"seed=3", "seed=3&parallel=4&unknown=1"},
	} {
		for _, d := range []*fasthgp.PortfolioOptions{nil, defaults} {
			if a, b := key(pair[0], d), key(pair[1], d); a != b {
				t.Errorf("defaults %v: %q and %q keyed apart: %+v vs %+v", d != nil, pair[0], pair[1], a, b)
			}
		}
	}
	// Spelled-out defaults share the defaulted key only where the
	// decoder knows the defaults.
	for _, pair := range [][2]string{
		{"", "chain=multilevel,fm,algo1"},
		{"", "starts=8&seed=1&budget=30s"},
	} {
		if a, b := key(pair[0], defaults), key(pair[1], defaults); a != b {
			t.Errorf("%q and %q keyed apart under defaults: %+v vs %+v", pair[0], pair[1], a, b)
		}
		if a, b := key(pair[0], nil), key(pair[1], nil); a == b {
			t.Errorf("%q and %q share %+v without defaults", pair[0], pair[1], a)
		}
	}
	for _, pair := range [][2]string{
		{"chain=fm,core", "chain=core,fm"},
		{"chain=fm", ""},
		{"starts=2", "starts=3"},
		{"starts=1", ""},
		{"seed=0", ""},
		{"seed=3", "seed=4"},
		{"budget=1s", "budget=2s"},
		{"epsilon=0.1", ""},
		{"epsilon=0.1", "epsilon=0.2"},
		{"fixed=0:L", "fixed=0:R"},
		{"fixed=1:L", ""},
	} {
		for _, d := range []*fasthgp.PortfolioOptions{nil, defaults} {
			if a, b := key(pair[0], d), key(pair[1], d); a == b {
				t.Errorf("defaults %v: %q and %q share key %+v", d != nil, pair[0], pair[1], a)
			}
		}
	}
	if a, b := key("", nil), mustRequest(t, "", path4+"net n4 a c\n", "", nil).Key(); a == b {
		t.Errorf("two netlists share key %+v", a)
	}
	// The options carry the query over the defaults, and the contract.
	r := mustRequest(t, "", path4, "chain=core&starts=3&epsilon=0.5", defaults)
	o := r.Options
	if strings.Join(o.Chain, ",") != "algo1" || o.Starts != 3 || o.Seed != 1 || o.Budget != 30*time.Second ||
		o.Parallelism != 2 || o.Constraint.Epsilon != 0.5 || o.Constraint.Fixed(0) != 0 {
		t.Errorf("options = %+v", o)
	}
	if o = mustRequest(t, "", path4, "", defaults).Options; strings.Join(o.Chain, ",") != "multilevel,fm,algo1" {
		t.Errorf("default chain = %q, want the resolved library default", o.Chain)
	}
}

// FuzzParseRequest: the decoder never panics, decodes a query to the
// same key every time, and accepts a chain only in registry names.
func FuzzParseRequest(f *testing.F) {
	f.Add("", path4, "chain=core,fm&starts=2&seed=3&budget=1s")
	f.Add("nets", path4, "epsilon=0.1&fixed=0:L,3:R")
	f.Add("hgr", "3 4\n1 2\n2 3\n3 4\n", "chain=fm,&seed=-1")
	f.Add("", "module a\nnet n a\n", "chain=sa,%20flowpart")
	registry := map[string]bool{}
	for _, a := range fasthgp.Algorithms() {
		registry[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, format, body, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		for _, defaults := range []*fasthgp.PortfolioOptions{nil, {Starts: 8, Seed: 1, Budget: time.Second}} {
			r, err := ParseRequest(format, strings.NewReader(body), q, defaults)
			if err != nil {
				continue
			}
			again, err := ParseRequest(format, strings.NewReader(body), q, defaults)
			if err != nil || again.Key() != r.Key() {
				t.Fatalf("query %q decoded twice: keys %+v and %+v (err %v)", query, r.Key(), again.Key(), err)
			}
			for _, name := range r.Options.Chain {
				if !registry[name] {
					t.Fatalf("query %q: accepted chain %q holds %q", query, r.Options.Chain, name)
				}
			}
		}
	})
}

func TestContractCheck(t *testing.T) {
	c := mustContract(t, "", path4, "epsilon=0.1")
	for _, tc := range []struct {
		name       string
		cut        int
		assignment []int
		ok         bool
	}{
		{"honest", 1, []int{0, 0, 1, 1}, true},
		{"wrong cut", 2, []int{0, 0, 1, 1}, false},
		{"fixed vertex moved, true cut", 1, []int{1, 1, 0, 0}, false},
		{"unbalanced, true cut", 1, []int{0, 0, 0, 1}, false},
		{"short assignment", 0, []int{0}, false},
		{"side out of range", 1, []int{0, 2, 1, 1}, false},
	} {
		err := c.Check(PartitionResponse{Cut: tc.cut, Assignment: tc.assignment})
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

package serve

import (
	"net/url"
	"strings"
	"testing"
)

// path4 is a 4-module path a-b-c-d with a pinned left and d right.
const path4 = "module a\nmodule b\nmodule c\nmodule d\nnet n1 a b\nnet n2 b c\nnet n3 c d\nfixed a L\nfixed d R\n"

func mustContract(t *testing.T, format, body, query string) *Contract {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseContract(format, strings.NewReader(body), q)
	if err != nil {
		t.Fatalf("ParseContract(%q, %q): %v", format, query, err)
	}
	return c
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
	} {
		q, _ := url.ParseQuery(tc.query)
		if _, err := ParseContract(tc.format, strings.NewReader(tc.body), q); err == nil {
			t.Errorf("format %q query %q body %q: accepted", tc.format, tc.query, tc.body)
		}
	}
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

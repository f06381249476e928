package netio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
)

func TestReadBasic(t *testing.T) {
	in := `
# a tiny netlist
module alpha 5
net n1 alpha beta gamma
net n2 beta gamma
netweight n2 3
`
	h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 3 || h.NumEdges() != 2 {
		t.Fatalf("dims = %d,%d", h.NumVertices(), h.NumEdges())
	}
	if h.VertexName(0) != "alpha" || h.VertexWeight(0) != 5 {
		t.Errorf("module 0 = %s/%d", h.VertexName(0), h.VertexWeight(0))
	}
	if h.VertexWeight(1) != 1 {
		t.Errorf("implicit module weight = %d", h.VertexWeight(1))
	}
	if h.EdgeName(0) != "n1" || h.EdgeSize(0) != 3 {
		t.Errorf("net 0 = %s size %d", h.EdgeName(0), h.EdgeSize(0))
	}
	if h.EdgeWeight(1) != 3 {
		t.Errorf("net n2 weight = %d", h.EdgeWeight(1))
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":  "frob x y\n",
		"net too short":      "net lonely\n",
		"module bad weight":  "module a -2\n",
		"module extra":       "module a 1 2\n",
		"netweight unknown":  "netweight ghost 2\n",
		"netweight badvalue": "net n a b\nnetweight n x\n",
		"netweight arity":    "net n a b\nnetweight n\n",
		"duplicate net":      "net n a b\nnet n c d\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.SetVertexName(0, "m0")
	b.SetVertexName(1, "m1")
	b.SetVertexName(2, "m2")
	b.SetVertexName(3, "m3")
	b.SetVertexWeight(2, 7)
	e0 := b.AddEdge(0, 1, 2)
	e1 := b.AddEdge(2, 3)
	b.SetEdgeName(e0, "clk")
	b.SetEdgeName(e1, "d0")
	b.SetEdgeWeight(e1, 2)
	h := b.MustBuild()

	var buf bytes.Buffer
	if err := Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := Read(&buf)
	if err != nil {
		t.Fatalf("re-read: %v\noutput was:\n%s", err, buf.String())
	}
	if h2.NumVertices() != h.NumVertices() || h2.NumEdges() != h.NumEdges() {
		t.Fatalf("dims changed: (%d,%d) → (%d,%d)", h.NumVertices(), h.NumEdges(), h2.NumVertices(), h2.NumEdges())
	}
	for v := 0; v < h.NumVertices(); v++ {
		if h2.VertexName(v) != h.VertexName(v) || h2.VertexWeight(v) != h.VertexWeight(v) {
			t.Errorf("module %d changed: %s/%d → %s/%d", v, h.VertexName(v), h.VertexWeight(v), h2.VertexName(v), h2.VertexWeight(v))
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		if h2.EdgeName(e) != h.EdgeName(e) || h2.EdgeWeight(e) != h.EdgeWeight(e) {
			t.Errorf("net %d meta changed", e)
		}
		pa, pb := h.EdgePins(e), h2.EdgePins(e)
		if len(pa) != len(pb) {
			t.Fatalf("net %d size changed", e)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Errorf("net %d pins changed: %v → %v", e, pa, pb)
			}
		}
	}
}

func TestRoundTripUnnamed(t *testing.T) {
	h, err := hypergraph.FromEdges(3, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumVertices() != 3 || h2.NumEdges() != 2 {
		t.Errorf("dims = %d,%d", h2.NumVertices(), h2.NumEdges())
	}
}

func TestSortedModuleNames(t *testing.T) {
	h, err := Read(strings.NewReader("net n1 zeta alpha mid\n"))
	if err != nil {
		t.Fatal(err)
	}
	names := SortedModuleNames(h)
	if names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("names = %v", names)
	}
}

func TestTokenSanitizes(t *testing.T) {
	if token("a b") != "a_b" {
		t.Errorf("token(%q) = %q", "a b", token("a b"))
	}
	if token("clean") != "clean" {
		t.Error("token mangled a clean name")
	}
}

// TestReadRejectsDuplicatePins covers the fuzz-found malformed inputs:
// a net listing the same module twice is an authoring error, not a
// merge candidate.
func TestReadRejectsDuplicatePins(t *testing.T) {
	if _, err := Read(strings.NewReader("net n a b a\n")); err == nil {
		t.Error("duplicate pin accepted")
	}
	if !strings.Contains(mustErr(t, "net n a b a\n").Error(), "twice") {
		t.Error("duplicate-pin error not descriptive")
	}
	// Distinct nets may still share pins freely.
	if _, err := Read(strings.NewReader("net n1 a b\nnet n2 a b\n")); err != nil {
		t.Errorf("shared pins across nets rejected: %v", err)
	}
}

func mustErr(t *testing.T, in string) error {
	t.Helper()
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatalf("accepted %q", in)
	}
	return err
}

// TestTokenSanitizesUnicodeSpace pins the hardened token rule: every
// rune strings.Fields would split on must be rewritten, or a written
// name would read back as several fields.
func TestTokenSanitizesUnicodeSpace(t *testing.T) {
	for _, name := range []string{"a\vb", "a\rb", "a\fb", "a b", "a b"} {
		b := hypergraph.NewBuilder(2)
		b.SetVertexName(0, name)
		b.SetVertexName(1, "plain")
		b.AddEdge(0, 1)
		h := b.MustBuild()
		var buf bytes.Buffer
		if err := Write(&buf, h); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		h2, err := Read(&buf)
		if err != nil {
			t.Fatalf("%q: round-trip rejected: %v", name, err)
		}
		if h2.NumVertices() != 2 || h2.NumEdges() != 1 {
			t.Errorf("%q: round-trip mangled structure: %v", name, h2)
		}
	}
}

func TestFixedRoundTrip(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2, 3)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fixed := []int8{0, -1, 1, -1}
	var buf bytes.Buffer
	if err := WriteFixed(&buf, h, fixed); err != nil {
		t.Fatal(err)
	}
	h2, got, err := ReadFixed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumVertices() != 4 || h2.NumEdges() != 2 {
		t.Fatalf("round-trip lost structure: %d vertices, %d edges", h2.NumVertices(), h2.NumEdges())
	}
	if len(got) != 4 {
		t.Fatalf("fixed length %d, want 4", len(got))
	}
	for v := range fixed {
		if got[v] != fixed[v] {
			t.Errorf("fixed[%d] = %d, want %d", v, got[v], fixed[v])
		}
	}
	// Plain Read must accept (and discard) the fixed directives.
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Read rejected fixed directives: %v", err)
	}
}

func TestFixedDirectiveErrors(t *testing.T) {
	for _, bad := range []string{
		"net n1 a b\nfixed a X\n",
		"net n1 a b\nfixed a\n",
		"net n1 a b\nfixed a L\nfixed a R\n",
		"net n1 a b\nfixed ghost L\n",
	} {
		if _, _, err := ReadFixed(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadFixed accepted %q", bad)
		}
	}
}

func TestReadFixedNilWhenAbsent(t *testing.T) {
	_, fixed, err := ReadFixed(strings.NewReader("net n1 a b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if fixed != nil {
		t.Fatalf("fixed = %v, want nil", fixed)
	}
}

func TestHMetisFixRoundTrip(t *testing.T) {
	fixed := []int8{-1, 0, 1, -1, 2}
	var buf bytes.Buffer
	if err := WriteHMetisFix(&buf, fixed); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHMetisFix(bytes.NewReader(buf.Bytes()), len(fixed))
	if err != nil {
		t.Fatal(err)
	}
	for v := range fixed {
		if got[v] != fixed[v] {
			t.Errorf("fixed[%d] = %d, want %d", v, got[v], fixed[v])
		}
	}
	if _, err := ReadHMetisFix(strings.NewReader("0\n1\n"), 3); err == nil {
		t.Error("short fix file accepted")
	}
	if _, err := ReadHMetisFix(strings.NewReader("0\nbogus\n1\n"), 3); err == nil {
		t.Error("malformed fix file accepted")
	}
	if all, err := ReadHMetisFix(strings.NewReader("-1\n-1\n-1\n"), 3); err != nil || all != nil {
		t.Errorf("all-free fix file: got %v, %v; want nil, nil", all, err)
	}
}

// TestWriteRefusesCollidingTokens: two modules or two nets that would
// write the same token must fail Write, naming both, with nothing
// written — the text would read back as a different hypergraph.
func TestWriteRefusesCollidingTokens(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    func() *hypergraph.Hypergraph
		want string
	}{
		{"a vertex named like another's synthesized name", func() *hypergraph.Hypergraph {
			b := hypergraph.NewBuilder(4)
			b.SetVertexName(0, "v3")
			b.AddEdge(0, 1)
			b.AddEdge(2, 3)
			return b.MustBuild()
		}, `netio: modules 0 ("v3") and 3 ("v3") both write as "v3"`},
		{"a space sanitized onto another name", func() *hypergraph.Hypergraph {
			b := hypergraph.NewBuilder(2)
			b.SetVertexName(0, "a b")
			b.SetVertexName(1, "a_b")
			b.AddEdge(0, 1)
			return b.MustBuild()
		}, `netio: modules 0 ("a b") and 1 ("a_b") both write as "a_b"`},
		{"an edge named like another's synthesized name", func() *hypergraph.Hypergraph {
			b := hypergraph.NewBuilder(3)
			e := b.AddEdge(0, 1)
			b.AddEdge(1, 2)
			b.SetEdgeName(e, "e1")
			return b.MustBuild()
		}, `netio: nets 0 ("e1") and 1 ("e1") both write as "e1"`},
	} {
		var buf bytes.Buffer
		err := Write(&buf, tc.h())
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Write err = %v, want %q; wrote:\n%s", tc.name, err, tc.want, buf.String())
		} else if buf.Len() != 0 {
			t.Errorf("%s: Write failed but wrote %q", tc.name, buf.String())
		}
	}
}

// TestWriteText pins Write's exact text: module lines first (weights
// past 1 appended), then each net with its weight line, then fixed
// directives.
func TestWriteText(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.SetVertexName(0, "in a")
	b.SetVertexWeight(2, 7)
	b.AddEdge(0, 1, 2)
	e := b.AddEdge(3, 2)
	b.SetEdgeName(e, "clk")
	b.SetEdgeWeight(e, 12)
	var buf bytes.Buffer
	if err := WriteFixed(&buf, b.MustBuild(), []int8{0, -1, 5, 1}); err != nil {
		t.Fatal(err)
	}
	const want = `# netlist: 4 modules, 2 nets
module in_a
module v1
module v2 7
module v3
net e0 in_a v1 v2
net clk v2 v3
netweight clk 12
fixed in_a L
fixed v2 5
fixed v3 R
`
	if got := buf.String(); got != want {
		t.Errorf("WriteFixed wrote:\n%s\nwant:\n%s", got, want)
	}
}

// TestReadFixedMatchesReference holds ReadFixed to readFixedReference
// on the golden corpus (fixed directives included) and on the netio
// text of the eight Table-2 instances.
func TestReadFixedMatchesReference(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.nets")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus netlists: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := parseBothWays(t, data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	for _, name := range gen.Table2Names() {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, h); err != nil {
			t.Fatal(err)
		}
		if _, _, err := parseBothWays(t, buf.Bytes()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadFixedLineCap holds ReadFixed to readFixedReference at the
// line cap, where bufio.Scanner's limit falls: a line of maxHMetisLine
// bytes is refused, one byte shorter is read. Its pin then writes a
// module line of maxHMetisLine bytes, which Write refuses. (Kept out
// of the fuzz seeds: 4 MiB inputs stall the fuzzer's mutation loop.)
func TestReadFixedLineCap(t *testing.T) {
	long := append([]byte("net n "), bytes.Repeat([]byte("a"), maxHMetisLine-len("net n "))...)
	if _, _, err := parseBothWays(t, long); err == nil {
		t.Fatal("a line of maxHMetisLine bytes was accepted")
	}
	h, _, err := parseBothWays(t, append(long[:len(long)-1], '\n'))
	if err != nil {
		t.Fatalf("a line one byte under the cap: %v", err)
	}
	if err := Write(io.Discard, h); !errors.Is(err, errLineCap) {
		t.Fatalf("Write of a module line at the cap: err = %v, want errLineCap", err)
	}
}

package netio

// Native fuzz targets for the two parsers. The property is the same
// for both: arbitrary input must either parse or return an error —
// never panic, never over-allocate from a hostile header — and
// anything that parses must survive a write→read round trip with its
// structure, weights and (for the netio format) names intact. The
// netlist target also holds ReadFixed to readFixedReference on every
// input: same accept/reject, same error text, same hypergraph, names
// and fixed slice.
//
// Seed corpora live in testdata/fuzz/<Target>/ and run as ordinary
// test cases under plain `go test`; CI additionally runs each target
// for 30 s of coverage-guided exploration.

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"fasthgp/internal/hypergraph"
)

// sameStructure fails the test unless a and b are structurally
// identical hypergraphs (vertices, edges, pins, weights).
func sameStructure(t *testing.T, a, b *hypergraph.Hypergraph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("round trip changed shape: %v → %v", a, b)
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) {
			t.Fatalf("vertex %d weight %d → %d", v, a.VertexWeight(v), b.VertexWeight(v))
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		if a.EdgeWeight(e) != b.EdgeWeight(e) {
			t.Fatalf("edge %d weight %d → %d", e, a.EdgeWeight(e), b.EdgeWeight(e))
		}
		pa, pb := a.EdgePins(e), b.EdgePins(e)
		if len(pa) != len(pb) {
			t.Fatalf("edge %d size %d → %d", e, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("edge %d pins %v → %v", e, pa, pb)
			}
		}
	}
}

// sameNames fails the test unless a and b name every vertex and edge
// alike.
func sameNames(t *testing.T, a, b *hypergraph.Hypergraph) {
	t.Helper()
	if a.HasNames() != b.HasNames() {
		t.Fatalf("HasNames %v → %v", a.HasNames(), b.HasNames())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexName(v) != b.VertexName(v) {
			t.Fatalf("vertex %d name %q → %q", v, a.VertexName(v), b.VertexName(v))
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		if a.EdgeName(e) != b.EdgeName(e) {
			t.Fatalf("edge %d name %q → %q", e, a.EdgeName(e), b.EdgeName(e))
		}
	}
}

// sameFixed fails the test unless a and b are the same fixed slice,
// nil and empty told apart.
func sameFixed(t *testing.T, a, b []int8) {
	t.Helper()
	if (a == nil) != (b == nil) || !slices.Equal(a, b) {
		t.Fatalf("fixed %v (nil %v) → %v (nil %v)", a, a == nil, b, b == nil)
	}
}

// parseBothWays runs ReadFixed and readFixedReference on data and fails
// unless they agree exactly; it returns ReadFixed's answer.
func parseBothWays(t *testing.T, data []byte) (*hypergraph.Hypergraph, []int8, error) {
	t.Helper()
	want, wantFixed, wantErr := readFixedReference(bytes.NewReader(data))
	h, fixed, err := ReadFixed(bytes.NewReader(data))
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadFixed err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		return nil, nil, err
	}
	sameStructure(t, want, h)
	sameNames(t, want, h)
	sameFixed(t, wantFixed, fixed)
	return h, fixed, nil
}

func FuzzParseNetlist(f *testing.F) {
	f.Add([]byte("net n1 a b c\nnet n2 b d\n"))
	f.Add([]byte("# comment\nmodule a 3\nmodule b\nnet clk a b\nnetweight clk 2\n"))
	f.Add([]byte("module only\n"))
	f.Add([]byte("net n a\n"))
	f.Add([]byte("net n a b a\n"))
	f.Add([]byte("net n1 a b\r\nnet n2 b c\r\nfixed a L\r\n"))
	f.Add([]byte("net\u00a0n1 a\u00a0b\nnet n2\u00a0b c\u00a0\n"))
	f.Add([]byte("net n a b\nmodule b 3\n"))
	f.Add([]byte("net n1 a b\nnet n2 b c\nmodule c 2\n"))
	f.Add([]byte("fixed b R\nnet n a b\nfixed a 0\n"))
	f.Add([]byte("net n a b\nfixed ghost R\n"))
	f.Add([]byte("net n a b c\nfixed a 127\nfixed b -0\nfixed c 128\n"))
	f.Add([]byte("module a 3\nnet n a b\nmodule a\nmodule b 2\nmodule a 5\n"))
	f.Add([]byte("netweight n 2\nnet n a b\n"))
	f.Add([]byte("net n a b\nnetweight n 2\nnetweight n 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, fixed, err := parseBothWays(t, data)
		if err != nil {
			return // rejected cleanly, as the reference does
		}
		var buf bytes.Buffer
		if err := WriteFixed(&buf, h, fixed); errors.Is(err, errLineCap) {
			return // a name near the cap: no line of the text may hold it
		} else if err != nil {
			t.Fatalf("write failed on parsed netlist: %v", err)
		}
		h2, fixed2, err := ReadFixed(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected:\n%v\nwritten:\n%s", err, buf.String())
		}
		sameStructure(t, h, h2)
		sameNames(t, h, h2)
		sameFixed(t, fixed, fixed2)
	})
}

func FuzzParseHMetis(f *testing.F) {
	f.Add([]byte("2 4\n1 2\n3 4\n"))
	f.Add([]byte("% weighted\n2 3 11\n5 1 2\n1 2 3\n2\n1\n4\n"))
	f.Add([]byte("1 2 10\n1 2\n3\n3\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("1 999999999\n1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHMetis(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var buf bytes.Buffer
		if err := WriteHMetis(&buf, h); err != nil {
			t.Fatalf("write failed on parsed hypergraph: %v", err)
		}
		h2, err := ReadHMetis(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected:\n%v\nwritten:\n%s", err, buf.String())
		}
		sameStructure(t, h, h2)
	})
}

package netio

// Differential suite for the zero-copy hMETIS parsers: on every input —
// curated accept/reject cases, generated instances, chunk-boundary
// stress, fuzz bytes — ParseHMetisStream and ParseHMetisBytes must
// agree with ReadHMetis on accept vs reject and produce a structurally
// identical hypergraph when they accept.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
)

// parseAllWays runs the three parsers on input and asserts they agree,
// returning the reference result (nil when all reject).
func parseAllWays(t *testing.T, name string, input []byte) *hypergraph.Hypergraph {
	t.Helper()
	want, wantErr := ReadHMetis(bytes.NewReader(input))
	for _, p := range []struct {
		name string
		h    *hypergraph.Hypergraph
		err  error
	}{
		{"stream", nil, nil},
		{"bytes", nil, nil},
		{"stream-1byte", nil, nil},
	} {
		var h *hypergraph.Hypergraph
		var err error
		switch p.name {
		case "stream":
			h, err = ParseHMetisStream(bytes.NewReader(input))
		case "bytes":
			h, err = ParseHMetisBytes(input)
		case "stream-1byte":
			h, err = ParseHMetisStream(iotest.OneByteReader(bytes.NewReader(input)))
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s: accept/reject mismatch: ReadHMetis err=%v, %s err=%v",
				name, p.name, wantErr, p.name, err)
		}
		if err == nil {
			sameStructure(t, want, h)
		}
	}
	return want
}

func TestParseHMetisStreamAccepts(t *testing.T) {
	for name, input := range map[string]string{
		"unweighted":        "2 4\n1 2\n3 4\n",
		"edge-weighted":     "2 3 1\n5 1 2\n7 2 3\n",
		"vertex-weighted":   "1 2 10\n1 2\n3\n4\n",
		"both-weighted":     "2 3 11\n5 1 2\n1 2 3\n2\n1\n4\n",
		"fmt-zero":          "1 2 0\n1 2\n",
		"comments":          "% header comment\n2 4\n% mid comment\n1 2\n\n3 4\n% tail comment\n",
		"crlf":              "2 4\r\n1 2\r\n3 4\r\n",
		"padded":            "  2 4  \n\t1 2\t\n 3 4 \n",
		"plus-signs":        "+1 +2\n+1 +2\n",
		"zero-edges":        "0 3\n",
		"no-final-newline":  "1 2\n1 2",
		"tabs-and-runs":     "1  4\n1\t \t2   3\f4\n",
		"nbsp-separators":   "1 2\n1 2\n",
		"nel-separators":    "1 2\n12\n",
		"ideographic-space": "1 2\n　1 2　\n",
		"vweight-trailing":  "1 2 10\n1 2\n3 ignored tokens\n4\n",
		"weight-zero":       "1 2 1\n0 1 2\n",
	} {
		h := parseAllWays(t, name, []byte(input))
		if h == nil {
			t.Errorf("%s: expected accept, all parsers rejected", name)
		}
	}
}

func TestParseHMetisStreamRejects(t *testing.T) {
	for name, input := range map[string]string{
		"empty":             "",
		"only-comments":     "% nothing\n% here\n",
		"one-field-header":  "3\n",
		"four-field-header": "1 2 11 9\n1 2\n",
		"bad-fmt":           "1 2 7\n1 2\n",
		"negative-edges":    "-1 2\n",
		"negative-verts":    "1 -2\n1 2\n",
		"header-not-number": "x 2\n1 2\n",
		"header-overflow":   "99999999999999999999 2\n1 2\n",
		"header-over-cap":   "1 4194305\n1 2\n",
		"missing-edge":      "2 4\n1 2\n",
		"vertex-zero":       "1 2\n0 1\n",
		"vertex-over":       "1 2\n1 3\n",
		"vertex-junk":       "1 2\n1 2x\n",
		"vertex-underscore": "1 22\n1 1_2\n",
		"duplicate-pin":     "1 4\n1 2 1\n",
		"weight-negative":   "1 2 1\n-5 1 2\n",
		"weight-overflow":   "1 2 1\n9223372036854775808 1 2\n",
		"weight-no-pins":    "1 2 1\n5\n",
		"trailing-content":  "1 2\n1 2\n3 4\n",
		"missing-vweights":  "1 2 10\n1 2\n3\n",
		"bad-vweight":       "1 2 10\n1 2\nx\n4\n",
		"negative-vweight":  "1 2 10\n1 2\n-3\n4\n",
		"pin-empty-sign":    "1 2\n+ 1\n",
		"dup-after-unicode": "1 4\n2 3 2\n",
		"weight-hex":        "1 2 1\n0x5 1 2\n",
	} {
		if h := parseAllWays(t, name, []byte(input)); h != nil {
			t.Errorf("%s: expected reject, all parsers accepted", name)
		}
	}
}

// TestParseHMetisStreamGenerated round-trips generated hypergraphs
// through WriteHMetis and checks all parsers agree on real-shaped
// files, including one big enough to cross several refill chunks.
func TestParseHMetisStreamGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name string
		n    int
		cfg  gen.RandomConfig
	}{
		{"small", 40, gen.RandomConfig{NumEdges: 80, MinEdgeSize: 2, MaxEdgeSize: 5}},
		{"wide", 2000, gen.RandomConfig{NumEdges: 6000, MinEdgeSize: 2, MaxEdgeSize: 12}},
	} {
		h, err := gen.Random(tc.n, tc.cfg, rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := WriteHMetis(&buf, h); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		got := parseAllWays(t, tc.name, buf.Bytes())
		if got == nil {
			t.Fatalf("%s: generated file rejected", tc.name)
		}
		sameStructure(t, h, got)
	}
}

// TestParseHMetisStreamLongLine pins the line-length cap: a single line
// at or beyond the bufio.Scanner token limit is rejected by every
// parser, just below it is accepted.
func TestParseHMetisStreamLongLine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte inputs")
	}
	// The one-byte reader variant is skipped here on purpose: pushing a
	// 4 MB line through it is quadratic by construction.
	long := []byte("2 2 " + strings.Repeat(" ", maxHMetisLine) + "\n1 2\n2 1\n")
	if _, err := ReadHMetis(bytes.NewReader(long)); err == nil {
		t.Error("ReadHMetis accepted a line at the scanner cap")
	}
	if _, err := ParseHMetisStream(bytes.NewReader(long)); err == nil {
		t.Error("stream parser accepted a line at the scanner cap")
	}
	if _, err := ParseHMetisBytes(long); err == nil {
		t.Error("bytes parser accepted a line at the scanner cap")
	}
	padded := []byte("2 2" + strings.Repeat(" ", 1<<16) + "\n1 2\n2 1\n")
	if h := parseAllWays(t, "padded-under-cap", padded); h == nil {
		t.Error("long-but-legal line rejected")
	}
}

func TestReadHMetisFile(t *testing.T) {
	dir := t.TempDir()
	content := "% file\n2 3 11\n5 1 2\n1 2 3\n2\n1\n4\n"
	path := filepath.Join(dir, "t.hgr")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadHMetis(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadHMetisFile(path)
	if err != nil {
		t.Fatalf("ReadHMetisFile: %v", err)
	}
	sameStructure(t, want, got)

	// Empty file: mmap declines, the stream fallback must reject it the
	// same way ReadHMetis rejects empty input.
	empty := filepath.Join(dir, "empty.hgr")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHMetisFile(empty); err == nil {
		t.Error("empty file accepted")
	}

	if _, err := ReadHMetisFile(filepath.Join(dir, "missing.hgr")); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzParseHMetisStream drives the zero-copy parsers differentially
// against ReadHMetis on arbitrary bytes. Seeds include the hostile
// headers the PR 2 fuzzing found (allocation bombs, overflow counts)
// plus unicode-whitespace and CRLF shapes.
func FuzzParseHMetisStream(f *testing.F) {
	f.Add([]byte("2 4\n1 2\n3 4\n"))
	f.Add([]byte("% weighted\n2 3 11\n5 1 2\n1 2 3\n2\n1\n4\n"))
	f.Add([]byte("1 2 10\n1 2\n3\n3\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("1 999999999\n1 2\n"))
	f.Add([]byte("99999999999999999999 2\n"))
	f.Add([]byte("4194305 1\n1 1\n"))
	f.Add([]byte("2 4\r\n1 2\r\n3 4\r\n"))
	f.Add([]byte("1 2\n+1 +2\n"))
	f.Add([]byte("1 2 1\n9223372036854775807 1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := ReadHMetis(bytes.NewReader(data))
		hs, errS := ParseHMetisStream(bytes.NewReader(data))
		hb, errB := ParseHMetisBytes(data)
		if (errS == nil) != (wantErr == nil) {
			t.Fatalf("stream accept/reject mismatch on %q: ReadHMetis err=%v, stream err=%v", data, wantErr, errS)
		}
		if (errB == nil) != (wantErr == nil) {
			t.Fatalf("bytes accept/reject mismatch on %q: ReadHMetis err=%v, bytes err=%v", data, wantErr, errB)
		}
		if wantErr != nil {
			return
		}
		sameStructure(t, want, hs)
		sameStructure(t, want, hb)
	})
}

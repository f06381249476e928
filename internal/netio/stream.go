package netio

// Zero-copy hMETIS parsing. The reference parser ReadHMetis, kept in
// the tests as the differential oracle, tokenizes every line through
// strings.TrimSpace + strings.Fields — on a gigabyte .hgr that
// materializes a []string (and one string header per token) for every
// edge line. The streaming parser below walks byte views instead:
// ParseHMetisBytes parses an in-memory image (the mmap fast path in
// ReadHMetisFile) without copying a single token, and ParseHMetisStream
// parses any io.Reader through one reusable chunk buffer. Both must
// accept and reject exactly the inputs ReadHMetis does — same unicode
// whitespace set, same strconv integer semantics, same header caps and
// line-length limit — and produce a structurally identical hypergraph.
// The differential suite and FuzzParseHMetisStream enforce that.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"unicode"
	"unicode/utf8"

	"fasthgp/internal/hypergraph"
)

// maxHMetisLine mirrors the bufio.Scanner token cap ReadHMetis
// configures: a line of this many bytes or more is rejected.
const maxHMetisLine = 1 << 22

// lineSource yields raw lines (split on '\n' only, terminator stripped,
// any '\r' left for trimming) as byte views valid until the next call.
// It returns io.EOF when exhausted.
type lineSource interface {
	next() ([]byte, error)
}

// byteLines is the zero-copy lineSource over an in-memory image.
type byteLines struct {
	data []byte
}

func (b *byteLines) next() ([]byte, error) {
	if b.data == nil {
		return nil, io.EOF
	}
	var line []byte
	if i := bytes.IndexByte(b.data, '\n'); i >= 0 {
		line, b.data = b.data[:i], b.data[i+1:]
	} else {
		line, b.data = b.data, nil
	}
	if len(line) >= maxHMetisLine {
		return nil, bufio.ErrTooLong
	}
	return line, nil
}

// readerLines is the lineSource over an io.Reader: one buffer, grown at
// most to the line cap, compacted and refilled as lines are consumed.
// Returned views alias the buffer and are valid until the next call.
type readerLines struct {
	r    io.Reader
	buf  []byte
	pos  int // start of the unconsumed region
	scan int // newline search watermark: buf[pos:scan] holds no '\n'
	end  int // end of the filled region
	err  error
	done bool
}

// readerBuffer is readerLines' initial buffer size, cut down to fit a
// reader that reports a shorter remaining length (bytes.Reader,
// strings.Reader, bytes.Buffer): a small request body then costs a
// small buffer.
const readerBuffer = 1 << 16

func newReaderLines(r io.Reader) *readerLines {
	size := readerBuffer
	if lr, ok := r.(interface{ Len() int }); ok {
		size = min(size, max(lr.Len()+1, 512))
	}
	return &readerLines{r: r, buf: make([]byte, size)}
}

func (rl *readerLines) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(rl.buf[rl.scan:rl.end], '\n'); i >= 0 {
			idx := rl.scan + i
			line := rl.buf[rl.pos:idx]
			rl.pos = idx + 1
			rl.scan = rl.pos
			if len(line) >= maxHMetisLine {
				return nil, bufio.ErrTooLong
			}
			return line, nil
		}
		rl.scan = rl.end
		if rl.done {
			if rl.pos < rl.end {
				line := rl.buf[rl.pos:rl.end]
				rl.pos = rl.end
				if len(line) >= maxHMetisLine {
					return nil, bufio.ErrTooLong
				}
				return line, nil
			}
			if rl.err != nil {
				return nil, rl.err
			}
			return nil, io.EOF
		}
		if rl.end-rl.pos >= maxHMetisLine {
			return nil, bufio.ErrTooLong
		}
		if rl.pos > 0 {
			copy(rl.buf, rl.buf[rl.pos:rl.end])
			rl.end -= rl.pos
			rl.scan -= rl.pos
			rl.pos = 0
		}
		if rl.end == len(rl.buf) {
			grown := make([]byte, min(2*len(rl.buf), maxHMetisLine+1))
			copy(grown, rl.buf[:rl.end])
			rl.buf = grown
		}
		for tries := 0; ; tries++ {
			n, err := rl.r.Read(rl.buf[rl.end:])
			rl.end += n
			if err != nil {
				rl.done = true
				if err != io.EOF {
					rl.err = err
				}
				break
			}
			if n > 0 {
				break
			}
			if tries >= 100 { // mirror bufio.Scanner's empty-read guard
				rl.done = true
				rl.err = io.ErrNoProgress
				break
			}
		}
	}
}

// asciiSpace marks the bytes strings.Fields treats as separators
// without consulting the unicode tables.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// cutField returns the first whitespace-delimited token of line and the
// remainder after it, using exactly the rune set of strings.Fields
// (unicode.IsSpace, with invalid UTF-8 treated as token bytes). A nil
// token means no field remains.
func cutField(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, sz := utf8.DecodeRune(line[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += sz
	}
	if i == len(line) {
		return nil, nil
	}
	j := i
	for j < len(line) {
		if c := line[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
			continue
		}
		r, sz := utf8.DecodeRune(line[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += sz
	}
	return line[i:j], line[j:]
}

// countFields returns how many tokens remain on line (for error
// messages only — the hot path never calls it).
func countFields(line []byte) int {
	n := 0
	for {
		tok, rest := cutField(line)
		if tok == nil {
			return n
		}
		n++
		line = rest
	}
}

// joinFields renders the tokens of line separated by single spaces,
// matching strings.Join(strings.Fields(line), " ") — error paths only.
func joinFields(line []byte) string {
	var sb []byte
	for {
		tok, rest := cutField(line)
		if tok == nil {
			return string(sb)
		}
		if len(sb) > 0 {
			sb = append(sb, ' ')
		}
		sb = append(sb, tok...)
		line = rest
	}
}

// parseInt64Bytes replicates strconv.ParseInt(s, 10, 64) accept/reject
// on a byte view: optional sign, decimal digits only, 64-bit range.
func parseInt64Bytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	const cutoff = uint64(1) << 63 / 10
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > cutoff {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > uint64(1)<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n == uint64(1)<<63 {
		return 0, false
	}
	return int64(n), true
}

// atoiBytes replicates strconv.Atoi on a byte view.
func atoiBytes(b []byte) (int, bool) {
	v, ok := parseInt64Bytes(b)
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// ParseHMetisBytes parses an in-memory hMETIS .hgr image without
// copying any token, accepting and rejecting exactly as ReadHMetis
// does. It is the parser behind the ReadHMetisFile mmap fast path.
func ParseHMetisBytes(data []byte) (*hypergraph.Hypergraph, error) {
	return parseHMetis(&byteLines{data: data})
}

// ReadHMetisFile parses the .hgr file at path, memory-mapping it
// read-only where the platform allows so the file bytes are the parse
// buffer — no read copies, no token materialization. Files that cannot
// be mapped (empty files, pipes, non-unix platforms) go through
// ParseHMetisStream. Semantics match ReadHMetis exactly either way.
func ReadHMetisFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netio: hmetis: %w", err)
	}
	defer f.Close()
	if data, unmap, ok := mmapFile(f); ok {
		defer unmap()
		return ParseHMetisBytes(data)
	}
	return ParseHMetisStream(f)
}

// ParseHMetisStream parses an hMETIS .hgr stream through one reusable
// chunk buffer: no per-line string, no per-line []string, no token
// copies. Semantics are identical to ReadHMetis on every input.
func ParseHMetisStream(r io.Reader) (*hypergraph.Hypergraph, error) {
	return parseHMetis(newReaderLines(r))
}

func parseHMetis(ls lineSource) (*hypergraph.Hypergraph, error) {
	// nextLine skips blank and %-comment lines after trimming, exactly
	// like ReadHMetis's next(); a returned line always has ≥1 field.
	nextLine := func() ([]byte, error) {
		for {
			line, err := ls.next()
			if err != nil {
				return nil, err
			}
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '%' {
				continue
			}
			return line, nil
		}
	}

	header, err := nextLine()
	if err != nil {
		return nil, fmt.Errorf("netio: hmetis: missing header: %w", err)
	}
	if n := countFields(header); n < 2 || n > 3 {
		return nil, fmt.Errorf("netio: hmetis: header wants 2 or 3 fields, got %d", n)
	}
	tok1, rest := cutField(header)
	tok2, rest := cutField(rest)
	tok3, _ := cutField(rest)
	numEdges, ok1 := atoiBytes(tok1)
	numVerts, ok2 := atoiBytes(tok2)
	if !ok1 || !ok2 || numEdges < 0 || numVerts < 0 {
		return nil, fmt.Errorf("netio: hmetis: bad header %q", joinFields(header))
	}
	if numEdges > MaxHMetisDeclared || numVerts > MaxHMetisDeclared {
		return nil, fmt.Errorf("netio: hmetis: header declares %d edges, %d vertices; limit %d", numEdges, numVerts, MaxHMetisDeclared)
	}
	edgeWeighted, vertexWeighted := false, false
	if tok3 != nil {
		switch string(tok3) { // comparison only: does not allocate
		case "0":
		case "1":
			edgeWeighted = true
		case "10":
			vertexWeighted = true
		case "11":
			edgeWeighted, vertexWeighted = true, true
		default:
			return nil, fmt.Errorf("netio: hmetis: unknown fmt %q", tok3)
		}
	}

	b := hypergraph.NewBuilder(numVerts)
	// seenAt[v] = 1-based edge number that last listed vertex v: the
	// stamp replaces ReadHMetis's per-edge map, and pins is reused
	// across edges (Builder.AddEdge copies).
	seenAt := make([]int32, numVerts+1)
	var pins []int
	for e := 0; e < numEdges; e++ {
		line, err := nextLine()
		if err != nil {
			return nil, fmt.Errorf("netio: hmetis: edge %d: %w", e+1, err)
		}
		weight := int64(1)
		if edgeWeighted {
			tok, rest := cutField(line)
			w, ok := parseInt64Bytes(tok)
			if !ok || w < 0 {
				return nil, fmt.Errorf("netio: hmetis: edge %d: bad weight %q", e+1, tok)
			}
			weight = w
			line = rest
		}
		pins = pins[:0]
		for {
			tok, rest := cutField(line)
			if tok == nil {
				break
			}
			line = rest
			v, ok := atoiBytes(tok)
			if !ok || v < 1 || v > numVerts {
				return nil, fmt.Errorf("netio: hmetis: edge %d: bad vertex %q", e+1, tok)
			}
			if seenAt[v] == int32(e+1) {
				return nil, fmt.Errorf("netio: hmetis: edge %d lists vertex %d twice", e+1, v)
			}
			seenAt[v] = int32(e + 1)
			pins = append(pins, v-1)
		}
		if len(pins) == 0 {
			return nil, fmt.Errorf("netio: hmetis: edge %d has no pins", e+1)
		}
		id := b.AddEdge(pins...)
		b.SetEdgeWeight(id, weight)
	}
	if vertexWeighted {
		for v := 0; v < numVerts; v++ {
			line, err := nextLine()
			if err != nil {
				return nil, fmt.Errorf("netio: hmetis: vertex weight %d: %w", v+1, err)
			}
			tok, _ := cutField(line) // trailing tokens ignored, as in ReadHMetis
			w, ok := parseInt64Bytes(tok)
			if !ok || w < 0 {
				return nil, fmt.Errorf("netio: hmetis: vertex weight %d: bad value %q", v+1, tok)
			}
			b.SetVertexWeight(v, w)
		}
	}
	if extra, err := nextLine(); err == nil {
		return nil, fmt.Errorf("netio: hmetis: trailing content %q after the declared %d edges", joinFields(extra), numEdges)
	} else if err != io.EOF {
		return nil, fmt.Errorf("netio: hmetis: %w", err)
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("netio: hmetis: %w", err)
	}
	return h, nil
}

package main

// One answer through two doors: hgpart's portfolio path must return
// exactly what fasthgp.PartitionPortfolio returns with the daemon's
// default options, for every golden-corpus netlist under each balance
// contract, given in hgpart's own encoding (-epsilon, a -fixed file).
// cmd/hgpartd's door test holds the HTTP handler to the same library
// answer.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fasthgp"
)

func TestPortfolioDoorMatchesLibrary(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.nets")
	if err != nil || len(paths) != 22 {
		t.Fatalf("corpus: %d netlists (%v), want 22", len(paths), err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h, inline, err := fasthgp.ReadNetlistFixed(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		n := h.NumVertices()
		// The fixed case pins the first module left and the last right,
		// overriding any inline directives, as -fixed does.
		pins := make([]int8, n)
		for v := range pins {
			pins[v] = fasthgp.FreeVertex
		}
		pins[0], pins[n-1] = 0, 1
		fixPath := filepath.Join(t.TempDir(), "pins.fix")
		var fix bytes.Buffer
		if err := fasthgp.WriteHMetisFix(&fix, pins); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixPath, fix.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			c     fasthgp.Constraint
			flags []string
		}{
			{"none", fasthgp.Constraint{FixedSide: inline}, nil},
			{"epsilon", fasthgp.Constraint{Epsilon: 0.1, FixedSide: inline}, []string{"-epsilon", "0.1"}},
			{"fixed", fasthgp.Constraint{FixedSide: pins}, []string{"-fixed", fixPath}},
		} {
			for _, seed := range []int64{1, 7, 42} {
				name := fmt.Sprintf("%s/%s/seed%d", filepath.Base(path), tc.name, seed)
				lib, err := fasthgp.PartitionPortfolio(context.Background(), h, fasthgp.PortfolioOptions{
					Starts: 8, Seed: seed, Budget: 30 * time.Second, Constraint: tc.c,
				})
				if err != nil || lib.Degraded {
					t.Fatalf("%s: library door: %v (degraded %v)", name, err, err == nil && lib.Degraded)
				}
				args := append([]string{"-in", path, "-algo", "multilevel", "-fallback", "fm,core",
					"-starts", "8", "-seed", strconv.FormatInt(seed, 10), "-v"}, tc.flags...)
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%s: hgpart exit %d: %s", name, code, stderr.String())
				}
				tier, cut, sides := parsePortfolioRun(t, name, stdout.String(), n)
				if tier != lib.TierName || cut != lib.CutSize {
					t.Errorf("%s: hgpart tier %s cut %d, library tier %s cut %d", name, tier, cut, lib.TierName, lib.CutSize)
				}
				for v, side := range sides {
					if want := "LR"[lib.Partition.Side(v)]; side != want {
						t.Errorf("%s: module %d on %c through hgpart, %c through the library", name, v, side, want)
						break
					}
				}
			}
		}
	}
}

// parsePortfolioRun reads the winning tier, the cut and every module's
// side from hgpart's portfolio output; a degraded run fails the test.
func parsePortfolioRun(t *testing.T, name, out string, n int) (tier string, cut int, sides []byte) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "winner: "):
			if strings.Contains(line, "[degraded]") {
				t.Fatalf("%s: degraded answer: %s", name, line)
			}
			tier = line[strings.Index(line, "(")+1 : strings.Index(line, ")")]
		case strings.HasPrefix(line, "cutsize: "):
			if _, err := fmt.Sscanf(line, "cutsize: %d", &cut); err != nil {
				t.Fatalf("%s: %q: %v", name, line, err)
			}
		case strings.HasPrefix(line, "  "):
			f := strings.Fields(line)
			sides = append(sides, f[len(f)-1][0])
		}
	}
	if tier == "" || len(sides) != n {
		t.Fatalf("%s: output lacks a winner or %d module sides:\n%s", name, n, out)
	}
	return tier, cut, sides
}

package main

// One answer through two doors: POST /partition on a daemon at its
// default flags must return exactly what fasthgp.PartitionPortfolio
// returns with the same options, for every golden-corpus netlist under
// each balance contract, given in the HTTP encoding (the epsilon and
// fixed query parameters). cmd/hgpart's door test holds the CLI to the
// same library answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fasthgp"
	"fasthgp/internal/serve"
)

func TestHandlerDoorMatchesLibrary(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.nets")
	if err != nil || len(paths) != 22 {
		t.Fatalf("corpus: %d netlists (%v), want 22", len(paths), err)
	}
	// hgpartd's flag defaults.
	s := newServer(serverConfig{
		maxBody: 8 << 20, queue: 4, reqTimeout: 30 * time.Second, drainTimeout: 10 * time.Second,
		breakerThreshold: 3, breakerCooldown: 30 * time.Second, cacheSize: 128,
		portfolio: fasthgp.PortfolioOptions{Starts: 8, Seed: 1},
	}, io.Discard)
	handler := s.handler()
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
		// overriding any inline directives, as the fixed query does.
		pins := make([]int8, n)
		for v := range pins {
			pins[v] = fasthgp.FreeVertex
		}
		pins[0], pins[n-1] = 0, 1
		for _, tc := range []struct {
			name, query string
			c           fasthgp.Constraint
		}{
			{"none", "", fasthgp.Constraint{FixedSide: inline}},
			{"epsilon", "&epsilon=0.1", fasthgp.Constraint{Epsilon: 0.1, FixedSide: inline}},
			{"fixed", fmt.Sprintf("&fixed=0:L,%d:R", n-1), fasthgp.Constraint{FixedSide: pins}},
		} {
			for _, seed := range []int64{1, 7, 42} {
				name := fmt.Sprintf("%s/%s/seed%d", filepath.Base(path), tc.name, seed)
				lib, err := fasthgp.PartitionPortfolio(context.Background(), h, fasthgp.PortfolioOptions{
					Starts: 8, Seed: seed, Budget: 30 * time.Second, Constraint: tc.c,
				})
				if err != nil || lib.Degraded {
					t.Fatalf("%s: library door: %v (degraded %v)", name, err, err == nil && lib.Degraded)
				}
				rec := post(t, handler, fmt.Sprintf("/partition?seed=%d%s", seed, tc.query), string(raw))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
				}
				var resp serve.PartitionResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Degraded {
					t.Fatalf("%s: degraded answer from tier %s", name, resp.TierName)
				}
				if resp.TierName != lib.TierName || resp.Cut != lib.CutSize || len(resp.Assignment) != n {
					t.Errorf("%s: handler tier %s cut %d (%d sides), library tier %s cut %d",
						name, resp.TierName, resp.Cut, len(resp.Assignment), lib.TierName, lib.CutSize)
					continue
				}
				for v, side := range resp.Assignment {
					if side != int(lib.Partition.Side(v)) {
						t.Errorf("%s: module %d on side %d through the handler, %d through the library", name, v, side, lib.Partition.Side(v))
						break
					}
				}
			}
		}
	}
}

package fasthgp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/resilience"
)

func TestPartitionPortfolioHappyPath(t *testing.T) {
	h := testNetlist(t, 3)
	res, err := PartitionPortfolio(context.Background(), h,
		PortfolioOptions{Budget: 30 * time.Second, Starts: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != 0 || res.TierName != "multilevel" || res.Degraded {
		t.Errorf("tier/name/degraded = %d/%s/%v, want 0/multilevel/false", res.Tier, res.TierName, res.Degraded)
	}
	if _, err := VerifyCut(h, res.Partition, res.CutSize); err != nil {
		t.Fatalf("portfolio result fails the oracle: %v", err)
	}
}

func TestPartitionPortfolioChainAliases(t *testing.T) {
	h := testNetlist(t, 1)
	res, err := PartitionPortfolio(context.Background(), h,
		PortfolioOptions{Chain: []string{"core"}, Starts: 2}) // "core" aliases algo1
	if err != nil {
		t.Fatal(err)
	}
	if res.TierName != "algo1" {
		t.Errorf("TierName = %s, want algo1", res.TierName)
	}
	// An unknown or empty name anywhere in the chain fails the call
	// before any tier runs, with the typed error.
	for _, chain := range [][]string{{"no-such-algo"}, {"fm", ""}, {"multilevel", "fm", "nosuch"}} {
		res, err := PartitionPortfolio(context.Background(), h, PortfolioOptions{Chain: chain})
		if !errors.Is(err, ErrUnknownAlgorithm) || res != nil {
			t.Errorf("chain %q: (%v, %v), want ErrUnknownAlgorithm and no result", chain, res, err)
		}
	}
}

func TestParseChain(t *testing.T) {
	for spec, want := range map[string]string{
		"":                     "multilevel,fm,algo1",
		"core":                 "algo1",
		"multilevel, fm,core ": "multilevel,fm,algo1",
		"sa,flowpart,algI":     "anneal,flow,algo1",
		"kl,spectral,random":   "kl,spectral,random",
	} {
		got, err := ParseChain(spec)
		if err != nil || strings.Join(got, ",") != want {
			t.Errorf("ParseChain(%q) = (%q, %v), want %q", spec, got, err, want)
		}
	}
	for _, spec := range []string{"nosuch", "fm,", ",fm", "fm, ,core", " ", "fm;core"} {
		if got, err := ParseChain(spec); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("ParseChain(%q) = (%q, %v), want ErrUnknownAlgorithm", spec, got, err)
		}
	}
}

// TestPartitionPortfolioDegradesUnderCorruption: injected corruption
// invalidates every tier-0 candidate at the oracle gate, so the chain
// must fall back to tier 1 and still return a certified cut.
func TestPartitionPortfolioDegradesUnderCorruption(t *testing.T) {
	plan, err := faultinject.ParseSpec("corrupt@portfolio.tier:0")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Install(plan)()
	h := testNetlist(t, 5)
	res, err := PartitionPortfolio(context.Background(), h, PortfolioOptions{Starts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != 1 || res.TierName != "fm" || !res.Degraded {
		t.Errorf("tier/name/degraded = %d/%s/%v, want 1/fm/true", res.Tier, res.TierName, res.Degraded)
	}
	if !errors.Is(res.Tiers[0].Err, resilience.ErrInvalidResult) {
		t.Errorf("tier 0 err = %v, want ErrInvalidResult", res.Tiers[0].Err)
	}
	if _, err := VerifyCut(h, res.Partition, res.CutSize); err != nil {
		t.Fatalf("degraded result fails the oracle: %v", err)
	}
}

// TestRegistryRecoverBoundary: a panic raised before any engine start
// (here: a nil hypergraph dereferenced in setup) must come back as a
// typed *PartitionError from every registry algorithm, never crash.
func TestRegistryRecoverBoundary(t *testing.T) {
	for _, a := range Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			_, err := a.Run(context.Background(), nil, AlgoConfig{Starts: 1, Seed: 1})
			if err == nil {
				t.Fatal("nil hypergraph succeeded?")
			}
			var pe *PartitionError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *PartitionError", err, err)
			}
			if pe.Algorithm != a.Name {
				t.Errorf("PartitionError.Algorithm = %q, want %q", pe.Algorithm, a.Name)
			}
		})
	}
}

// TestEngineStartPanicSurfacesInStats: an injected panic at one engine
// start of a registry run degrades the run and is reported in
// EngineStats.Failures as a *PartitionError.
func TestEngineStartPanicSurfacesInStats(t *testing.T) {
	plan, err := faultinject.ParseSpec("panic@engine.start:1")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Install(plan)()
	h := testNetlist(t, 2)
	res, err := FM(h, FMOptions{Starts: 4, Seed: 2})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if res.Engine.StartsFailed != 1 || len(res.Engine.Failures) != 1 {
		t.Fatalf("StartsFailed/Failures = %d/%d, want 1/1", res.Engine.StartsFailed, len(res.Engine.Failures))
	}
	var pe *PartitionError
	if !errors.As(res.Engine.Failures[0], &pe) || pe.Start != 1 || pe.Algorithm != "fm" {
		t.Errorf("failure = %v, want fm start 1", res.Engine.Failures[0])
	}
	if _, err := VerifyCut(h, res.Partition, res.CutSize); err != nil {
		t.Fatalf("degraded result fails the oracle: %v", err)
	}
}

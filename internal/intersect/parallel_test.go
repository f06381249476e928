package intersect

// Differential suite for the sharded builder: with Parallelism > 1 the
// Result must be reflect.DeepEqual-identical to the serial CSR
// construction on every instance family, every threshold, and every
// worker count.
// minBuildShard is forced to 1 so even the tiny curated instances
// genuinely exercise the sharded passes.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/verify"
)

// forceSharding lowers the shard floor for the duration of a test so
// small instances take the parallel path, restoring it afterwards.
func forceSharding(t testing.TB) {
	t.Helper()
	prev := minBuildShard
	minBuildShard = 1
	t.Cleanup(func() { minBuildShard = prev })
}

var parallelWorkerCounts = []int{2, 3, 4, 8}

func checkShardedIdentical(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	for _, thr := range diffThresholds {
		want := serialCSR(h, Options{Threshold: thr})
		for _, w := range parallelWorkerCounts {
			var stats BuildStats
			got := BuildCounted(h, Options{Threshold: thr, Parallelism: w}, &stats)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s thr=%d workers=%d: sharded Result differs from serial\n got: %v\nwant: %v",
					name, thr, w, got, want)
			}
			if stats.MaxShardArcs > stats.TotalArcs {
				t.Errorf("%s thr=%d workers=%d: shard stats inconsistent: %+v", name, thr, w, stats)
			}
		}
	}
}

func TestBuildShardedCurated(t *testing.T) {
	forceSharding(t)
	for _, inst := range verify.SmallInstances() {
		checkShardedIdentical(t, inst.Name, inst.H)
	}
}

func TestBuildShardedExhaustive(t *testing.T) {
	forceSharding(t)
	for _, inst := range verify.ExhaustiveUniform(4, 2) {
		checkShardedIdentical(t, inst.Name, inst.H)
	}
}

func TestBuildShardedGenerated(t *testing.T) {
	forceSharding(t)
	rng := rand.New(rand.NewSource(7))
	h, err := gen.Random(300, gen.RandomConfig{NumEdges: 900, MinEdgeSize: 2, MaxEdgeSize: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkShardedIdentical(t, "random-300", h)
}

// TestBuildShardedProductionFloor exercises the sharded path with the
// production shard floor: a hypergraph large enough to shard without
// any test override.
func TestBuildShardedProductionFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h, err := gen.Random(400, gen.RandomConfig{NumEdges: 1200, MinEdgeSize: 2, MaxEdgeSize: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := serialCSR(h, Options{})
	var stats BuildStats
	got := BuildCounted(h, Options{Parallelism: 8}, &stats)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded Result differs from serial at production shard floor")
	}
	if stats.Shards < 2 {
		t.Fatalf("expected sharding to engage on 1200 nets, got %+v", stats)
	}
}

// TestBuildShardedStatsDeterministic pins that the blessed counters are
// pure functions of the input, run to run.
func TestBuildShardedStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, err := gen.Random(200, gen.RandomConfig{NumEdges: 600, MinEdgeSize: 2, MaxEdgeSize: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var first BuildStats
	for trial := 0; trial < 3; trial++ {
		var stats BuildStats
		BuildCounted(h, Options{Parallelism: 4}, &stats)
		if trial == 0 {
			first = stats
			continue
		}
		if stats != first {
			t.Fatalf("stats vary across identical runs: %+v vs %+v", stats, first)
		}
	}
}

// TestBuildShardedOversubscribed floods the sharded passes with more
// workers than GOMAXPROCS; under -race this also proves the per-shard
// arrays and disjoint adj slots are race-free.
func TestBuildShardedOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	forceSharding(t)

	rng := rand.New(rand.NewSource(31))
	h, err := gen.Random(250, gen.RandomConfig{NumEdges: 800, MinEdgeSize: 2, MaxEdgeSize: 7}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := serialCSR(h, Options{})
	got := Build(h, Options{Parallelism: 16})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("oversubscribed sharded Result differs from serial")
	}
}

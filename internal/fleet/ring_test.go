package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"fasthgp/internal/splitmix"
)

func TestRingLookupDeterministicAcrossJoinOrder(t *testing.T) {
	a := NewRing(64)
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		a.Add(id)
	}
	b := NewRing(64)
	for _, id := range []string{"w3", "w1", "w4", "w2"} {
		b.Add(id)
	}
	for key := uint64(0); key < 200; key++ {
		k := splitmix.Mix64(key)
		got, want := b.Lookup(k, 0), a.Lookup(k, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d: join order changed routing: %v vs %v", k, got, want)
		}
	}
}

func TestRingLookupDistinctPreferenceOrder(t *testing.T) {
	r := NewRing(32)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	for key := uint64(0); key < 100; key++ {
		order := r.Lookup(splitmix.Mix64(key), 0)
		if len(order) != 5 {
			t.Fatalf("key %d: %d candidates, want all 5", key, len(order))
		}
		seen := make(map[string]bool)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("key %d: duplicate candidate %s in %v", key, id, order)
			}
			seen[id] = true
		}
	}
}

func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	before := make(map[uint64]string)
	for key := uint64(0); key < 500; key++ {
		k := splitmix.Mix64(key)
		before[k] = r.Lookup(k, 1)[0]
	}
	if !r.Remove("w2") {
		t.Fatal("Remove(w2) = false")
	}
	moved := 0
	for k, owner := range before {
		now := r.Lookup(k, 1)[0]
		if owner == "w2" {
			if now == "w2" {
				t.Fatalf("key %d still routed to removed member", k)
			}
			continue
		}
		if now != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the departed member moved (consistent hashing should move none)", moved)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultReplicas)
	const members = 5
	for i := 0; i < members; i++ {
		r.Add(fmt.Sprintf("worker-%d", i))
	}
	counts := make(map[string]int)
	const keys = 20000
	for key := uint64(0); key < keys; key++ {
		counts[r.Lookup(splitmix.Mix64(key), 1)[0]]++
	}
	mean := keys / members
	for id, n := range counts {
		if n < mean/3 || n > mean*3 {
			t.Errorf("member %s owns %d of %d keys (mean %d): pathological imbalance", id, n, keys, mean)
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup(42, 3); got != nil {
		t.Errorf("empty ring Lookup = %v, want nil", got)
	}
	if !r.Add("a") || r.Add("a") {
		t.Error("Add should report true then false for a duplicate")
	}
	if !r.Has("a") || r.Has("b") {
		t.Error("Has wrong")
	}
	if r.Remove("b") {
		t.Error("Remove of absent member = true")
	}
	if got := r.Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("Members = %v", got)
	}
	if got := r.Lookup(42, 5); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("single-member Lookup = %v", got)
	}
}

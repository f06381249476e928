package fleet

// Consistent-hash ring. Each member contributes `replicas` virtual
// nodes whose positions are pure functions of (member id, replica
// index), so the ring's layout is identical across coordinator restarts
// and across coordinators — routing never depends on join order. Lookup
// walks clockwise from the key's position and returns distinct members,
// giving every job a stable preference order: the primary owner first
// (cache affinity), then the successors a retry should fail over to.

import (
	"sort"
	"sync"

	"fasthgp/internal/splitmix"
)

// DefaultReplicas is the virtual-node count per member when NewRing is
// given a non-positive value. 64 keeps the max/mean key imbalance under
// ~30% for small fleets without making membership changes expensive.
const DefaultReplicas = 64

// Ring is a consistent-hash ring over member ids. Safe for concurrent
// use; the zero value is not usable — construct with NewRing.
type Ring struct {
	replicas int

	mu      sync.RWMutex
	keys    []uint64          // sorted virtual-node positions
	owner   map[uint64]string // position -> member id
	members map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0 means DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint64]string),
		members:  make(map[string]struct{}),
	}
}

// vnode is the position of member id's replica i: the id's FNV-1a base
// point split into per-replica streams, the same construction the
// engine uses for per-start RNGs.
func vnode(id string, i int) uint64 {
	return splitmix.Mix64(fnv1a(id) ^ splitmix.Mix64(uint64(i)))
}

// Add inserts a member; it reports false if the member was already
// present. On the (astronomically unlikely) event of a virtual-node
// position collision between two members, the lexicographically smaller
// id keeps the slot, so the layout stays independent of join order.
func (r *Ring) Add(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; ok {
		return false
	}
	r.members[id] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		h := vnode(id, i)
		if prev, taken := r.owner[h]; taken {
			if prev <= id {
				continue
			}
		} else {
			r.keys = append(r.keys, h)
		}
		r.owner[h] = id
	}
	sort.Slice(r.keys, func(a, b int) bool { return r.keys[a] < r.keys[b] })
	return true
}

// Remove deletes a member; it reports false if the member was absent.
func (r *Ring) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return false
	}
	delete(r.members, id)
	kept := r.keys[:0]
	for _, h := range r.keys {
		if r.owner[h] == id {
			delete(r.owner, h)
			// Another member may also hash here (collision); re-add its
			// claim so its slot is not lost with the departing member.
			if heir, ok := r.collisionHeir(h); ok {
				r.owner[h] = heir
				kept = append(kept, h)
			}
			continue
		}
		kept = append(kept, h)
	}
	r.keys = kept
	return true
}

// collisionHeir finds the smallest surviving member whose virtual nodes
// include position h (collision cleanup for Remove; almost never runs).
func (r *Ring) collisionHeir(h uint64) (string, bool) {
	heir, found := "", false
	for id := range r.members {
		for i := 0; i < r.replicas; i++ {
			if vnode(id, i) == h && (!found || id < heir) {
				heir, found = id, true
			}
		}
	}
	return heir, found
}

// Has reports whether id is a member.
func (r *Ring) Has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[id]
	return ok
}

// Len is the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the member ids, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns up to n distinct members in preference order for key:
// the owner of the first virtual node clockwise from key, then the
// owners of the following nodes. n <= 0 means every member. The result
// is the failover order for a job whose fingerprint hashes to key.
func (r *Ring) Lookup(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.keys) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= key })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.keys) && len(out) < n; i++ {
		id := r.owner[r.keys[(start+i)%len(r.keys)]]
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

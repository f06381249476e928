package netio

import (
	"hash/maphash"
)

// interner holds the distinct names of one netlist: each is copied once
// into one byte arena, and each namespace (modules, nets) is a
// nameIndex over it that hands out dense ids in first-insertion order.
// Lookups hash the byte view with maphash under a seed drawn per
// interner, so a netlist crafted against one seed cannot pile its names
// into one probe chain of another: hgpartd parses untrusted bodies.
type interner struct {
	seed  maphash.Seed
	arena []byte
}

// nameIndex is an open-addressing (linear probing) table from names to
// ids, kept at most half full.
type nameIndex struct {
	slots []int     // 1 + id of the name in each slot, 0 when empty; length a power of two
	keys  []nameKey // by id
}

// nameKey is one interned name: its hash and its span in the arena.
type nameKey struct {
	hash       uint64
	start, end int
}

func newInterner() *interner { return &interner{seed: maphash.MakeSeed()} }

// name returns the arena bytes of ix's name id.
func (in *interner) name(ix *nameIndex, id int) []byte {
	k := ix.keys[id]
	return in.arena[k.start:k.end]
}

// find returns the id of name in ix (-1 when absent), its hash, and the
// slot that holds it or, when absent, the empty slot ending its probe.
func (in *interner) find(ix *nameIndex, name []byte) (id int, hash uint64, slot int) {
	hash = maphash.Bytes(in.seed, name)
	if len(ix.slots) == 0 {
		return -1, hash, -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1, hash, int(i)
		}
		if k := &ix.keys[s-1]; k.hash == hash && string(in.arena[k.start:k.end]) == string(name) {
			return s - 1, hash, int(i)
		}
	}
}

// lookup returns the id of name in ix, or -1.
func (in *interner) lookup(ix *nameIndex, name []byte) int {
	id, _, _ := in.find(ix, name)
	return id
}

// intern returns the id of name in ix, copying name into the arena
// under the next id when it is absent.
func (in *interner) intern(ix *nameIndex, name []byte) (id int, added bool) {
	id, hash, slot := in.find(ix, name)
	if id >= 0 {
		return id, false
	}
	id = len(ix.keys)
	start := len(in.arena)
	in.arena = append(in.arena, name...)
	ix.keys = append(ix.keys, nameKey{hash: hash, start: start, end: len(in.arena)})
	if 2*len(ix.keys) > len(ix.slots) {
		ix.rehash(max(64, 2*len(ix.slots)))
	} else {
		ix.slots[slot] = id + 1
	}
	return id, true
}

// rehash rebuilds the slots at size, a power of two, from the keys.
func (ix *nameIndex) rehash(size int) {
	ix.slots = make([]int, size)
	mask := uint64(size - 1)
	for id, k := range ix.keys {
		i := k.hash & mask
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = id + 1
	}
}

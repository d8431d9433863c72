package cluster

import (
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-shard vnode count when the caller does not
// choose one. 64 points per shard keeps the max/min load ratio across a
// handful of shards within a few percent while the ring stays small enough
// to rebuild on every membership change.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over shard ids. Each shard contributes
// vnodes points (FNV-64a of "id#k"); a tenant key maps to the shard owning
// the first point clockwise from the key's hash. Adding or removing one
// shard moves only the keys in that shard's arcs — the property the cluster
// leans on so a shard failure re-places ~1/N of tenants instead of
// reshuffling everyone.
//
// Membership changes rebuild the sorted point slice (O(total vnodes) — tiny
// for realistic shard counts) under a write lock; lookups take a read lock
// and binary-search, so the predict proxy path never contends with itself.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given vnodes per shard (<= 0 means
// DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// hashKey is FNV-64a plus a murmur-style finalizer. Raw FNV mixes each
// byte with a single multiply, so strings differing only near the end
// ("s3#0".."s3#63") keep correlated high bits and a shard's vnodes clump
// together on the ring; the finalizer's shift-xor-multiply rounds spread
// them, which is what makes 64 vnodes enough for a few-percent balance.
// It takes the key as a string or as bytes, so the proxy path hashes the key
// it composed in a stack buffer without making a string of it.
func hashKey[K string | []byte](s K) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * 1099511628211
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a shard's vnodes. Idempotent.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for k := 0; k < r.vnodes; k++ {
		r.points = append(r.points, ringPoint{hashKey(node + "#" + strconv.Itoa(k)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's vnodes. Idempotent.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the shard owning key, or ok=false on an empty ring.
func (r *Ring) Lookup(key string) (string, bool) {
	return r.lookupHash(hashKey(key))
}

// lookupHash returns the shard owning the key that hashes to h.
func (r *Ring) lookupHash(h uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node, true
}

// Has reports whether the shard is currently on the ring.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Nodes returns the shards on the ring, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

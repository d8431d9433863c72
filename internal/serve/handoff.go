package serve

import (
	"errors"
	"fmt"
	"sort"
)

// ErrDraining reports a personalization rejected because the server is
// draining: a draining shard serves the tenants it already holds but accepts
// no new ones, so the cluster router can move its state elsewhere without
// chasing a moving target. cmd/crisp-serve maps it to HTTP 503 with a
// Retry-After header; callers should retry against the router, which will
// have re-placed the tenant by then.
var ErrDraining = errors.New("serve: draining: not accepting new tenants")

// ErrTenantNotFound reports a handoff restore for a key that no tier —
// warm record or shared snapshot store — knows about.
var ErrTenantNotFound = errors.New("serve: tenant not found in any tier")

// HandoffTenant identifies one tenant a draining shard hands off: the cache
// key, its class set, and the identity fingerprints the receiving shard must
// reproduce when it restores the tenant from the shared snapshot store.
// QuantSignature is zero on float32 servers (there are no codes to pin).
type HandoffTenant struct {
	Key            string `json:"key"`
	Classes        []int  `json:"classes"`
	Fingerprint    uint64 `json:"fingerprint"`
	QuantSignature uint64 `json:"quant_signature"`
}

// BeginDrain flips the server into draining mode: Personalize calls for
// tenants this server does not already hold (hot or warm) fail with
// ErrDraining, while resident tenants keep serving until they are handed
// off. Idempotent; there is no way back — a drained shard restarts fresh.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain executes the shard-side half of a handoff: stop accepting new
// tenants, force queued predict batches out, flush every resident tenant to
// the shared snapshot store, and return the manifest of tenants (hot
// engines and warm delta records) another shard can now restore. Flush
// writes every hot tenant and every warm record not on disk yet (demotion
// writes the snapshot before it parks the record, but that write can fail),
// so after it every manifest entry has a disk copy. The manifest carries each tenant's structural fingerprint (and
// quant signature on int8 servers) so the receiving shard can verify its
// restored engine is bit-identical to the one that served here.
//
// Drain requires a snapshot store: without one there is nothing to hand
// off through, and it returns ErrNoSnapshotDir with the server still
// accepting traffic.
func (s *Server) Drain() ([]HandoffTenant, error) {
	if s.store == nil {
		return nil, ErrNoSnapshotDir
	}
	s.BeginDrain()
	s.DrainBatches()
	if _, err := s.Flush(); err != nil {
		return nil, fmt.Errorf("serve: drain flush: %w", err)
	}

	s.mu.Lock()
	tenants := make([]HandoffTenant, 0, len(s.entries)+len(s.warm))
	for _, el := range s.entries {
		p := el.Value.(*Personalization)
		tenants = append(tenants, HandoffTenant{
			Key: p.Key, Classes: p.Classes, Fingerprint: p.engine.Fingerprint(), QuantSignature: p.engine.QuantSignature(),
		})
	}
	for _, el := range s.warm {
		we := el.Value.(*warmEntry)
		tenants = append(tenants, HandoffTenant{
			Key: we.key, Classes: we.classes, Fingerprint: we.fp, QuantSignature: we.qsig,
		})
	}
	s.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Key < tenants[j].Key })
	return tenants, nil
}

// RestoreTenant is the receiving side of a handoff: adopt the tenant for
// key from the cheapest tier that has it — the same lookup a Personalize
// miss makes: a local warm record, else the shared snapshot store
// (re-reading the store index first, since the record was most likely
// written by another shard after this store opened) — and verify the
// rebuilt engine against the fingerprints the sending shard captured.
// wantFP/wantQSig of zero skip their check (an unverified adopt, e.g.
// recovering a shard that died without draining). Unlike the Personalize
// miss path it never falls back to a fresh pruning run: a handoff for state
// that cannot be found is an error the router must see (ErrTenantNotFound),
// not a silent multi-second re-prune.
func (s *Server) RestoreTenant(key string, wantFP, wantQSig uint64) error {
	if s.store == nil {
		return ErrNoSnapshotDir
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		// Already resident (e.g. lazily restored by a predict racing the
		// handoff): verify it is the same engine and adopt in place.
		eng := el.Value.(*Personalization).engine
		s.mu.Unlock()
		if err := checkIdentity(eng, wantFP, wantQSig); err != nil {
			return fmt.Errorf("serve: handoff {%s}: resident engine: %w", key, err)
		}
		return nil
	}
	s.mu.Unlock()

	p, err := s.lookup(key)
	if err == nil {
		err = checkIdentity(p.engine, wantFP, wantQSig)
	}
	if err != nil {
		s.mu.Lock()
		s.stats.HandoffErrors++
		s.mu.Unlock()
		return fmt.Errorf("serve: handoff {%s}: %w", key, err)
	}
	s.mu.Lock()
	if s.insertLocked(key, p) {
		s.stats.HandoffRestores++
	}
	s.mu.Unlock()
	s.rebalance()
	return nil
}

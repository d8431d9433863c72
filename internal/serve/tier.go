package serve

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/inference"
)

// The three-tier cache (Options.MemoryBudgetBytes > 0):
//
//	hot   — compiled engines, ready to Predict (up to HotFraction of budget)
//	warm  — model deltas, the bytes a snapshot record carries (rest of budget)
//	cold  — disk snapshots (Options.SnapshotDir), unbounded
//
// A hot tenant is a compiled engine, not a model clone: the engine owns
// everything it reads (inference package comment), and the personalized
// classifier survives only as a checkpoint model delta (mask + kept-position
// values — a small fraction of a full copy). A hot tenant holds its weights
// once, in its engine. A Float32 engine gives its delta back
// (checkpoint.EncodeEngineDelta) when a demotion or a snapshot write needs
// it, the same bytes the pruned clone encodes to. An Int8 engine holds lossy
// images, so an Int8 tenant keeps the delta it was compiled from until the
// store has acknowledged the tenant's record, and drops it then: after that
// the record is the delta (keepsDelta, deltaOf, dropDelta). Every hot
// tenant — pruned, restored or promoted — is compiled from a delta by admit,
// and none builds a model to do it: the universal model supplies the layer
// tree and a validated view over the delta (checkpoint.ViewModelDelta) the
// tenant's values. An engine squeezed out of the hot tier is demoted: its
// delta (held, derived or read back from the store) parks in a warm LRU and
// the engine is dropped. A later request promotes the record instead of
// re-pruning. A snapshot write stores the same delta under the tenant's
// metadata (checkpoint.WritePersonalization), and a cold restore admits the
// delta it reads back: warm entry and disk record are one format, and no
// tier transition builds a model. Because compilation and
// quantization only ever read the effective weights W ⊙ Mask — exactly what
// the delta preserves — promotion is bit-identical on the float path and
// QuantSignature-identical on int8; both are verified structurally at
// promote time against fingerprints captured at demotion, which also catches
// a record read back wrong. Warm records squeezed out by the byte budget drop
// to the cold tier (demotion first tries to write the disk copy, when a store
// is configured, and Flush retries a warm record whose write failed), and
// cold records re-prune only if the store is absent.

// estimated fixed overhead charged per resident object on top of the
// measured buffers (struct headers, batcher, LRU bookkeeping).
const (
	personalizationOverheadBytes = 2048
	warmEntryOverheadBytes       = 256
)

// warmEntry is one tenant as admit takes it: everything needed to build the
// hot Personalization without touching disk or the pruner — the tenant's
// header, which the Personalization and the snapshot record hold as is, and
// its delta. A demoted tenant
// (a warm record) also carries the identity fingerprints the rebuild is
// checked against; a tenant admitted for the first time carries zeros.
type warmEntry struct {
	checkpoint.PersonalizationRecord
	agreement float64
	// delta is the tenant's checkpoint model delta.
	delta []byte
	// fp pins the float structural identity (plan fingerprints in compile
	// order); qsig pins the int8 code identity (0 on Float32 servers). Both
	// are 0 on an entry that was never compiled.
	fp   uint64
	qsig uint64
	size int64
}

func warmEntryBytes(we *warmEntry) int64 {
	return int64(len(we.delta)) + int64(len(we.Key)) + int64(len(we.Classes))*8 + warmEntryOverheadBytes
}

// newPersonalization assembles a cache entry and fixes its resident cost:
// the engine's owned compiled state, plus the delta it was compiled from
// when the tenant keeps one (keepsDelta). The delta must not be written
// after this call.
func (s *Server) newPersonalization(hdr checkpoint.PersonalizationRecord, agreement float64, eng *inference.Engine, delta []byte) *Personalization {
	if !s.keepsDelta(eng, hdr.Key) {
		delta = nil
	}
	// The tenant and its batcher are one object.
	t := new(struct {
		p   Personalization
		bat batcher
	})
	p := &t.p
	p.PersonalizationRecord = hdr
	p.Agreement = agreement
	p.engine = eng
	p.delta = delta
	p.bat = s.initBatcher(&t.bat, eng)
	p.size = eng.MemoryFootprint() + int64(len(delta)) + personalizationOverheadBytes
	return p
}

// keepsDelta reports whether the tenant key, compiled to eng, must hold the
// delta it was compiled from: only at Int8 — a Float32 engine gives the
// delta back — and only while the tenant is not durable. Once the store has
// the tenant's record, the record is its delta and deltaOf reads it back.
// Without a store the held delta is the tenant's only full-precision copy.
func (s *Server) keepsDelta(eng *inference.Engine, key string) bool {
	return eng.Precision() == inference.Int8 && (s.store == nil || !s.store.has(key))
}

// deltaOf returns p's delta: the one an Int8 tenant still holds, else one
// derived from its Float32 engine, else — a durable Int8 tenant, so the
// server has a store — the one its record carries, read back as a cold
// restore reads it (loadRecord: a bad record is quarantined and counted).
func (s *Server) deltaOf(p *Personalization) ([]byte, error) {
	s.mu.Lock()
	delta := p.delta
	s.mu.Unlock()
	switch {
	case delta != nil:
		return delta, nil
	case p.engine.Precision() == inference.Float32:
		return checkpoint.EncodeEngineDelta(s.base, p.engine)
	}
	_, delta, err := s.loadRecord(p.Key)
	return delta, err
}

// dropDelta releases the delta a hot tenant holds once the store has
// acknowledged its record, and takes its bytes off the hot tier. It
// un-charges s.hotBytes only while p is the resident entry for its key: an
// evicted tenant (rebalance un-charged its size) or one that lost its insert
// (never charged) changes only its own size, so no tenant is un-charged
// twice.
func (s *Server) dropDelta(p *Personalization) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(p.delta))
	if n == 0 {
		return
	}
	p.delta = nil
	p.size -= n
	if el, ok := s.entries[p.Key]; ok && el.Value.(*Personalization) == p {
		s.hotBytes -= n
	}
}

// hotFullLocked reports whether the hot tier has no room for another
// engine — by count, or by bytes when a budget governs.
func (s *Server) hotFullLocked() bool {
	if s.lru.Len() >= s.opts.CacheSize {
		return true
	}
	return s.budget > 0 && s.hotBytes >= s.hotBudget
}

// hotOverLocked reports whether the hot tier is over its bound and must
// evict. The len > 1 guard keeps at least the newest engine resident even
// when a single engine exceeds the hot budget — a budget too small for one
// tenant degrades to a cache of one, never to livelock.
func (s *Server) hotOverLocked() bool {
	if s.lru.Len() > s.opts.CacheSize {
		return true
	}
	return s.budget > 0 && s.hotBytes > s.hotBudget && s.lru.Len() > 1
}

// rebalance enforces the tier bounds after an insert: hot engines past the
// count or byte bound demote (LRU order) to warm records, then warm records
// past the remaining budget drop to cold. Demotion work (a snapshot write
// when the tenant is not durable yet) runs outside mu; only the list surgery
// holds it.
func (s *Server) rebalance() {
	for {
		s.mu.Lock()
		if !s.hotOverLocked() {
			s.trimWarmLocked()
			s.mu.Unlock()
			return
		}
		el := s.lru.Back()
		victim := el.Value.(*Personalization)
		s.lru.Remove(el)
		delete(s.entries, victim.Key)
		s.hotBytes -= victim.size
		s.stats.Evictions++
		s.mu.Unlock()
		s.demote(victim)
	}
}

// trimWarmLocked drops warm-LRU tails until hot+warm fit the budget. A
// dropped record's durable copy (written at demotion) stays on disk, so the
// tenant falls to the cold tier, not back to the pruner.
func (s *Server) trimWarmLocked() {
	for s.budget > 0 && s.hotBytes+s.warmBytes > s.budget && s.warmLRU.Len() > 0 {
		el := s.warmLRU.Back()
		we := el.Value.(*warmEntry)
		s.warmLRU.Remove(el)
		delete(s.warm, we.Key)
		s.warmBytes -= we.size
		s.stats.WarmEvictions++
	}
}

// demote turns an evicted hot engine into a warm record (budgeted servers)
// or simply releases it (legacy count-LRU servers). A budgeted demotion takes
// the tenant's delta once (deltaOf: a Float32 engine encodes it, a durable
// Int8 tenant's is read back from its record) and, when a store is
// configured and holds no record yet, writes the snapshot from it before
// parking it. A write that fails (a disk error) still parks the record: it
// is not durable, and Flush writes it. A record that cannot be read back
// leaves nothing to park: the tenant is released, and its next request
// re-prunes.
func (s *Server) demote(p *Personalization) {
	if s.budget <= 0 {
		p.release()
		return
	}
	defer s.clock(&s.stats.DemoteNanos, time.Now())
	delta, err := s.deltaOf(p)
	if err != nil {
		// Nothing to park or write: the tenant falls to the store, if it
		// still has a record, and is re-pruned otherwise.
		p.release()
		return
	}
	we := &warmEntry{
		PersonalizationRecord: p.PersonalizationRecord,
		agreement:             p.Agreement,
		delta:                 delta,
		fp:                    p.engine.Fingerprint(),
		qsig:                  p.engine.QuantSignature(),
	}
	we.size = warmEntryBytes(we)
	if s.store != nil && !s.store.has(p.Key) {
		// The write-behind snapshot may not have landed yet; demotion must
		// not strand the tenant without a durable copy. put is idempotent,
		// so racing the scheduled write is harmless.
		s.writeSnapshot(we.PersonalizationRecord, delta)
	}
	p.release()

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, hot := s.entries[we.Key]; hot {
		return // re-personalized meanwhile; the hot copy wins
	}
	if _, ok := s.warm[we.Key]; !ok {
		s.warm[we.Key] = s.warmLRU.PushFront(we)
		s.warmBytes += we.size
		s.stats.Demotions++
	}
}

// clock adds the wall time since start to one of the Stats transition
// totals. Deferred first in a transition, so it runs after the function has
// given up s.mu.
func (s *Server) clock(total *uint64, start time.Time) {
	d := uint64(time.Since(start))
	s.mu.Lock()
	*total += d
	s.mu.Unlock()
}

// takeWarm removes and returns the warm record for key, or nil. The caller
// owns the record: a successful promote re-inserts the tenant hot, a failed
// one falls through to the cold/prune path (and the record is gone — it was
// not trustworthy).
func (s *Server) takeWarm(key string) *warmEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.warm[key]
	if !ok {
		return nil
	}
	we := el.Value.(*warmEntry)
	s.warmLRU.Remove(el)
	delete(s.warm, key)
	s.warmBytes -= we.size
	s.stats.WarmHits++
	return we
}

// admit is the one way a tenant becomes servable: every hot Personalization
// — a fresh prune, a cold restore, a warm promotion — is compiled here from
// the universal model's layer tree and a checksum-verified view over the
// tenant's delta (checkpoint.ViewModelDelta), and builds no classifier to do
// it. A pinned entry (a demoted tenant, fp != 0) must compile to the engine
// it was demoted from (checkIdentity), and its stored agreement carries
// over: re-measuring an identical engine would be waste. An unpinned entry
// at Int8 measures its agreement against a Float32 engine compiled from the
// same view, on the tenant's held-out split — once, here, never on the
// predict path; at Float32 the engine is the reference and agreement is 1.
func (s *Server) admit(we *warmEntry) (*Personalization, error) {
	view, err := checkpoint.ViewModelDelta(we.delta, s.base)
	if err != nil {
		return nil, fmt.Errorf("serve: admitting {%s}: %w", we.Key, err)
	}
	compile := func(prec inference.Precision) (*inference.Engine, error) {
		eng, err := inference.NewFromSource(s.base, view, inference.CompileOptions{Precision: prec})
		if err != nil {
			return nil, fmt.Errorf("serve: compiling %s engine for {%s}: %w", prec, we.Key, err)
		}
		return eng, nil
	}
	eng, err := compile(s.opts.Precision)
	if err != nil {
		return nil, err
	}
	agreement := we.agreement
	switch {
	case we.fp != 0:
		if err := checkIdentity(eng, we.fp, we.qsig); err != nil {
			return nil, fmt.Errorf("serve: admitting {%s}: %w", we.Key, err)
		}
	case s.opts.Precision == inference.Int8:
		ref, err := compile(inference.Float32)
		if err != nil {
			return nil, err
		}
		test := s.ds.MakeSplit("serve-test/"+we.Key, we.Classes, s.opts.TestPerClass)
		want, got := ref.Predict(test.X), eng.Predict(test.X)
		matches := 0
		for i := range want {
			if got[i] == want[i] {
				matches++
			}
		}
		s.mu.Lock()
		s.stats.AgreementSamples += uint64(len(want))
		s.stats.AgreementMatches += uint64(matches)
		s.mu.Unlock()
		agreement = float64(matches) / float64(len(want))
	default:
		agreement = 1
	}
	return s.newPersonalization(we.PersonalizationRecord, agreement, eng, we.delta), nil
}

// promoteWarm is admit timed as a warm promotion (Stats.PromoteNanos).
func (s *Server) promoteWarm(we *warmEntry) (*Personalization, error) {
	defer s.clock(&s.stats.PromoteNanos, time.Now())
	return s.admit(we)
}

// checkIdentity is the one check that an engine is the one a tenant's
// fingerprint and quant signature pin, made by a warm promotion, a handoff
// adoption and a handoff onto an already-resident tenant alike. A zero want
// skips its half (an unverified adopt); a Float32 engine's signature is 0,
// as is its warm record's.
func checkIdentity(eng *inference.Engine, wantFP, wantQSig uint64) error {
	if fp := eng.Fingerprint(); wantFP != 0 && fp != wantFP {
		return fmt.Errorf("fingerprint %016x, want %016x", fp, wantFP)
	}
	if sig := eng.QuantSignature(); wantQSig != 0 && sig != wantQSig {
		return fmt.Errorf("quant signature %016x, want %016x", sig, wantQSig)
	}
	return nil
}

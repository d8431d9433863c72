package serve

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestDrainRequiresSnapshotStore: the snapshot store is the handoff
// channel; without one Drain and RestoreTenant must refuse and leave the
// server serving.
func TestDrainRequiresSnapshotStore(t *testing.T) {
	s := newTestServer(t, quickOpts())
	if _, err := s.Drain(); !errors.Is(err, ErrNoSnapshotDir) {
		t.Fatalf("Drain without store: %v, want ErrNoSnapshotDir", err)
	}
	if s.Draining() {
		t.Fatal("a refused drain must leave the server accepting traffic")
	}
	if err := s.RestoreTenant("1,3", 0, 0); !errors.Is(err, ErrNoSnapshotDir) {
		t.Fatalf("RestoreTenant without store: %v, want ErrNoSnapshotDir", err)
	}
	if _, _, err := s.Personalize([]int{1, 3}); err != nil {
		t.Fatalf("server must still personalize after refused drain: %v", err)
	}
}

// TestDrainHandoffRoundTrip is the in-process version of a cluster
// rebalance: shard A drains, shard B (sharing the snapshot directory, with
// a store index opened BEFORE A wrote anything — forcing the refresh path)
// adopts every manifest tenant, and the adopted engines produce
// bit-identical logits without a single pruning run on B.
func TestDrainHandoffRoundTrip(t *testing.T) {
	opts := quickOpts()
	opts.SnapshotDir = t.TempDir()
	a := newTestServer(t, opts)
	b := newTestServer(t, opts) // opens (empty) store index before A writes

	pa1, _, err := a.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	pa2, _, err := a.Personalize([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	x := tierX(a, []int{1, 3})
	wantLogits := append([]float64(nil), pa1.Engine().Logits(x).Data...)

	tenants, err := a.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].Key != "0,2,4" || tenants[1].Key != "1,3" {
		t.Fatalf("manifest %+v, want sorted keys [0,2,4 1,3]", tenants)
	}
	if tenants[0].Fingerprint != pa2.Engine().Fingerprint() || tenants[1].Fingerprint != pa1.Engine().Fingerprint() {
		t.Fatalf("manifest fingerprints do not match the served engines: %+v", tenants)
	}
	if !a.Draining() || !a.Stats().Draining {
		t.Fatal("drain did not mark the server draining")
	}

	// A keeps serving its residents but refuses new tenants.
	if _, cached, err := a.Personalize([]int{3, 1}); err != nil || !cached {
		t.Fatalf("resident tenant on draining shard: cached=%v err=%v", cached, err)
	}
	if _, _, err := a.Personalize([]int{5}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new tenant on draining shard: %v, want ErrDraining", err)
	}

	// Drain is idempotent: the manifest is stable while residents remain.
	again, err := a.Drain()
	if err != nil || len(again) != len(tenants) {
		t.Fatalf("second drain: %d tenants, err=%v", len(again), err)
	}

	for _, tn := range tenants {
		if err := b.RestoreTenant(tn.Key, tn.Fingerprint, tn.QuantSignature); err != nil {
			t.Fatalf("handoff %q: %v", tn.Key, err)
		}
	}
	st := b.Stats()
	if st.HandoffRestores != 2 || st.Personalizations != 0 || st.HandoffErrors != 0 {
		t.Fatalf("adoption must be restore-only: %+v", st)
	}
	pb, cached, err := b.Personalize([]int{1, 3})
	if err != nil || !cached {
		t.Fatalf("adopted tenant not resident on B: cached=%v err=%v", cached, err)
	}
	if fp := pb.Engine().Fingerprint(); fp != pa1.Engine().Fingerprint() {
		t.Fatalf("fingerprint drifted across handoff: %016x vs %016x", fp, pa1.Engine().Fingerprint())
	}
	got := pb.Engine().Logits(x).Data
	for i := range wantLogits {
		if got[i] != wantLogits[i] {
			t.Fatalf("logit %d drifted across handoff: %v vs %v", i, got[i], wantLogits[i])
		}
	}

	// Re-handing-off a resident tenant is a verified no-op; a fingerprint
	// mismatch on a resident is the router's signal that state diverged.
	if err := b.RestoreTenant("1,3", pa1.Engine().Fingerprint(), 0); err != nil {
		t.Fatalf("resident re-handoff: %v", err)
	}
	if err := b.RestoreTenant("1,3", 12345, 0); err == nil {
		t.Fatal("resident fingerprint mismatch must fail the handoff")
	}
}

// TestDrainWritesWarmRecordsDemotionCouldNot: a demotion whose snapshot
// write fails (a disk error) still parks the warm record, which is then the
// tenant's only copy. Once the disk heals, Flush writes it beside the hot
// tenant, so every tenant Drain's manifest lists restores on a fresh server
// over the same directory. (Flush used to write hot tenants only: it wrote
// 1 here, and the peer's RestoreTenant of the warm tenant failed with
// ErrTenantNotFound.)
func TestDrainWritesWarmRecordsDemotionCouldNot(t *testing.T) {
	ckptOnly := func(name string) bool { return strings.Contains(filepath.Base(name), ".ckpt") }
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(11), fault.DiskFaults{WriteErr: 1, Match: ckptOnly})
	opts, dir := snapshotOpts(t)
	opts.FS = ffs
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	s := newTestServer(t, opts)
	for _, set := range [][]int{{1, 2}, {0, 3}} {
		if _, _, err := s.Personalize(set); err != nil {
			t.Fatal(err)
		}
	}
	s.pendingWait(&s.pendingSnaps) // every write-behind has failed
	if st := s.Stats(); st.Demotions != 1 || st.WarmEntries != 1 || st.ColdRecords != 0 || st.SnapshotErrors == 0 {
		t.Fatalf("fixture: want one warm record and nothing on disk: %+v", st)
	}

	ffs.SetEnabled(false) // the disk heals
	if n, err := s.Flush(); err != nil || n != 2 {
		t.Fatalf("Flush after healing wrote %d (%v), want the hot tenant and the warm record", n, err)
	}
	tenants, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("manifest %+v, want both tenants", tenants)
	}
	peerOpts := quickOpts()
	peerOpts.SnapshotDir = dir
	peer := newTestServer(t, peerOpts)
	for _, tn := range tenants {
		if err := peer.RestoreTenant(tn.Key, tn.Fingerprint, tn.QuantSignature); err != nil {
			t.Fatalf("handoff %q: %v", tn.Key, err)
		}
	}
	if st := peer.Stats(); st.HandoffRestores != 2 || st.Personalizations != 0 {
		t.Fatalf("adoption must be restore-only: %+v", st)
	}
}

// TestRestoreTenantWarmPath: a tenant demoted to this server's own warm
// tier is adopted by promotion, not by a disk read.
func TestRestoreTenantWarmPath(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	opts.SnapshotDir = t.TempDir()
	s := newTestServer(t, opts)

	p1, _, err := s.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	fp := p1.Engine().Fingerprint()
	// A second tenant squeezes the first out of the one-engine hot tier.
	if _, _, err := s.Personalize([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmEntries != 1 {
		t.Fatalf("fixture did not demote: %+v", st)
	}
	if err := s.RestoreTenant("1,3", fp, 0); err != nil {
		t.Fatalf("warm adoption: %v", err)
	}
	st := s.Stats()
	if st.HandoffRestores != 1 || st.Promotions != 1 || st.WarmHits != 1 || st.Personalizations != 2 {
		t.Fatalf("warm adoption bookkeeping: %+v", st)
	}
}

// TestRestoreTenantErrors: a handoff never falls back to pruning — missing
// state and identity mismatches are loud errors, while wantFP=0 allows an
// unverified adopt (recovering a shard that died without draining).
func TestRestoreTenantErrors(t *testing.T) {
	opts := quickOpts()
	opts.SnapshotDir = t.TempDir()
	a := newTestServer(t, opts)
	if _, _, err := a.Personalize([]int{2, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, opts)
	if err := b.RestoreTenant("0,1", 0, 0); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("missing tenant: %v, want ErrTenantNotFound", err)
	}
	if err := b.RestoreTenant("2,5", 12345, 0); err == nil {
		t.Fatal("fingerprint mismatch must fail the handoff")
	}
	if st := b.Stats(); st.HandoffErrors != 2 || st.Personalizations != 0 {
		t.Fatalf("handoff error bookkeeping: %+v", st)
	}
	if err := b.RestoreTenant("2,5", 0, 0); err != nil {
		t.Fatalf("unverified adopt: %v", err)
	}
	if st := b.Stats(); st.HandoffRestores != 1 || st.Personalizations != 0 {
		t.Fatalf("unverified adopt bookkeeping: %+v", st)
	}
}

// TestRestoreTenantResidentChecksQuantSignature: a handoff onto a tenant an
// Int8 server already holds is held to the quant signature as well as the
// fingerprint — the check every other adoption makes.
func TestRestoreTenantResidentChecksQuantSignature(t *testing.T) {
	opts := int8Opts()
	opts.SnapshotDir = t.TempDir()
	s := newTestServer(t, opts)
	p, _, err := s.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	fp, qsig := p.Engine().Fingerprint(), p.Engine().QuantSignature()
	if err := s.RestoreTenant(p.Key, fp, qsig); err != nil {
		t.Fatalf("resident re-handoff: %v", err)
	}
	if err := s.RestoreTenant(p.Key, fp, qsig^1); err == nil {
		t.Fatal("a resident tenant's quant signature mismatch must fail the handoff")
	}
}

// TestLazyFailoverAdoptsPeerSnapshot: when a shard inherits a dead peer's
// tenant through ordinary traffic (no handoff call), the personalize miss
// path refreshes the shared store index and restores instead of re-pruning.
func TestLazyFailoverAdoptsPeerSnapshot(t *testing.T) {
	opts := quickOpts()
	opts.SnapshotDir = t.TempDir()
	a := newTestServer(t, opts)
	b := newTestServer(t, opts) // index opened while the store is empty

	pa, _, err := a.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	pb, cached, err := b.Personalize([]int{1, 3})
	if err != nil || cached {
		t.Fatalf("failover personalize: cached=%v err=%v", cached, err)
	}
	st := b.Stats()
	if st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("failover must restore, not re-prune: %+v", st)
	}
	if pb.Engine().Fingerprint() != pa.Engine().Fingerprint() {
		t.Fatal("failover restore is not bit-identical to the dead shard's engine")
	}
}

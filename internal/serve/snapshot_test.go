package serve

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

// snapshotOpts is quickOpts plus a fresh snapshot directory.
func snapshotOpts(t *testing.T) (Options, string) {
	t.Helper()
	dir := t.TempDir()
	opts := quickOpts()
	opts.SnapshotDir = dir
	return opts, dir
}

// TestWarmRestartBitIdentical is the end-to-end restart scenario: N
// personalized class sets, an explicit flush, then a brand-new Server on
// the same directory must serve every set from disk — zero pruning jobs,
// logits bit-identical to the pre-restart engines.
func TestWarmRestartBitIdentical(t *testing.T) {
	opts, _ := snapshotOpts(t)
	env := sharedEnv()
	sets := [][]int{{1, 3}, {0, 2, 4}, {5}}

	s1 := newTestServer(t, opts)
	type probe struct {
		key    string
		logits []float64
	}
	var want []probe
	for _, set := range sets {
		p, _, err := s1.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		x := env.ds.MakeSplit("warm-probe/"+p.Key, set, 2).X
		want = append(want, probe{key: p.Key, logits: append([]float64(nil), p.Engine().Logits(x).Data...)})
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.SnapshotWrites != uint64(len(sets)) || st.SnapshotErrors != 0 {
		t.Fatalf("snapshot accounting after flush: %+v", st)
	}

	s2 := newTestServer(t, opts)
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sets) {
		t.Fatalf("restored %d of %d snapshots", n, len(sets))
	}
	st := s2.Stats()
	if st.RestoreHits != uint64(len(sets)) || st.RestoreErrors != 0 {
		t.Fatalf("restore accounting: %+v", st)
	}
	if st.Personalizations != 0 {
		t.Fatalf("warm restart ran %d pruning jobs, want 0", st.Personalizations)
	}

	for i, set := range sets {
		p, cached, err := s2.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("set %v not served from the restored cache", set)
		}
		x := env.ds.MakeSplit("warm-probe/"+p.Key, set, 2).X
		got := p.Engine().Logits(x).Data
		if len(got) != len(want[i].logits) {
			t.Fatalf("set %v: %d logits, want %d", set, len(got), len(want[i].logits))
		}
		for j := range got {
			if got[j] != want[i].logits[j] {
				t.Fatalf("set %v logit %d diverged after restart: %v vs %v", set, j, got[j], want[i].logits[j])
			}
		}
	}
	if st := s2.Stats(); st.Personalizations != 0 {
		t.Fatalf("restored sets re-pruned: %+v", st)
	}
}

// TestEvictionKeepsDiskCopy pins the LRU/store interaction: evicting an
// engine leaves its snapshot on disk, and the next request for it restores
// instead of re-pruning.
func TestEvictionKeepsDiskCopy(t *testing.T) {
	opts, dir := snapshotOpts(t)
	opts.CacheSize = 1
	s := newTestServer(t, opts)

	if _, _, err := s.Personalize([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Personalize([]int{2, 3}); err != nil { // evicts {0,1}
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("expected one eviction: %+v", st)
	}
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx["0,1"]; !ok {
		t.Fatalf("eviction dropped the disk copy; index %v", idx)
	}

	p, cached, err := s.Personalize([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("evicted set cannot be a cache hit")
	}
	if p.Key != "0,1" {
		t.Fatalf("restored key %q", p.Key)
	}
	st := s.Stats()
	if st.RestoreHits != 1 {
		t.Fatalf("evicted set did not restore from disk: %+v", st)
	}
	if st.Personalizations != 2 {
		t.Fatalf("re-requesting an evicted set re-pruned (personalizations %d, want 2): %+v", st.Personalizations, st)
	}
}

// TestRestoreSkipsCorruptRecords injects a truncated record and an
// unindexed garbage file: Restore must load the good records, quarantine the
// bad one (rename it aside and de-index it), and the server must re-prune
// the corrupt set on demand — exactly once, since after quarantine the key
// is a clean cache miss, not a repeated failed load.
func TestRestoreSkipsCorruptRecords(t *testing.T) {
	opts, dir := snapshotOpts(t)
	s1 := newTestServer(t, opts)
	for _, set := range [][]int{{1, 2}, {3, 4}} {
		if _, _, err := s1.Personalize(set); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}

	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	name, ok := idx["3,4"]
	if !ok {
		t.Fatalf("no record for 3,4 in %v", idx)
	}
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// An orphan file outside the index must simply be ignored.
	if err := os.WriteFile(filepath.Join(dir, "pdeadbeef.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, opts)
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d records, want 1", n)
	}
	st := s2.Stats()
	if st.RestoreHits != 1 || st.RestoreErrors != 1 || st.SnapshotsQuarantined != 1 {
		t.Fatalf("restore accounting: %+v", st)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt record not moved aside: %v", err)
	}
	if idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile)); err != nil || idx["3,4"] != "" {
		t.Fatalf("corrupt record still indexed (%v): %v", err, idx)
	}

	// The corrupt set still serves: the quarantined key is now a clean
	// cache miss → fresh prune, whose write-behind snapshot re-fills the
	// slot. No second load failure is charged.
	p, _, err := s2.Personalize([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Key != "3,4" || p.Engine() == nil {
		t.Fatalf("corrupt set did not re-personalize: %+v", p)
	}
	st = s2.Stats()
	if st.Personalizations != 1 || st.RestoreErrors != 1 {
		t.Fatalf("re-prune accounting: %+v", st)
	}
	if _, err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, opts)
	if n, err := s3.Restore(); err != nil || n != 2 {
		t.Fatalf("healed store restored %d (%v), want 2", n, err)
	}
}

// TestRestoreStopsAtCacheCapacity: restoring more engines than the cache
// can hold would build them only to evict them; Restore must stop at
// capacity and leave the rest to the lazy miss path.
func TestRestoreStopsAtCacheCapacity(t *testing.T) {
	opts, _ := snapshotOpts(t)
	s1 := newTestServer(t, opts)
	for _, set := range [][]int{{0}, {1}, {2}} {
		if _, _, err := s1.Personalize(set); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}

	opts.CacheSize = 2
	s2 := newTestServer(t, opts)
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if n != 2 || st.RestoreHits != 2 || st.CachedEngines != 2 || st.Evictions != 0 {
		t.Fatalf("restore past capacity: n=%d stats %+v", n, st)
	}
	// The uncached key still serves, lazily, from disk.
	if _, _, err := s2.Personalize([]int{2}); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.RestoreHits != 3 || st.Personalizations != 0 {
		t.Fatalf("lazy restore after capped Restore: %+v", st)
	}
}

// TestCorruptIndexFailsLoudly: an unreadable index must fail NewServer
// rather than silently orphan every record (the next write would rewrite
// the index without them).
func TestCorruptIndexFailsLoudly(t *testing.T) {
	opts, dir := snapshotOpts(t)
	if err := os.WriteFile(filepath.Join(dir, checkpoint.IndexFile), []byte("not an index\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	env := sharedEnv()
	if _, err := NewServer(env.build, env.base, env.ds, opts); err == nil {
		t.Fatal("corrupt snapshot index must fail NewServer")
	}
}

// TestTornIndexTailHeals: a crash mid-append can leave the index with a
// partial final line and nothing else — or, on the first append, an empty
// file or part of the header. Opening the store must truncate the tail (not
// fail, not let the next append concatenate onto it, not trust a filename
// cut short and quarantine a record that was never corrupt), and the next
// snapshot must index under its real key.
func TestTornIndexTailHeals(t *testing.T) {
	for _, torn := range []string{"", "CRSP", "CRSPIDX1\n0,", "CRSPIDX1\n0,1\tp00.ckp"} {
		opts, dir := snapshotOpts(t)
		if err := os.WriteFile(filepath.Join(dir, checkpoint.IndexFile), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, opts)
		if _, _, err := s.Personalize([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.SnapshotsQuarantined != 0 || st.RestoreErrors != 0 {
			t.Fatalf("index %q: %d records quarantined, %d restore errors", torn, st.SnapshotsQuarantined, st.RestoreErrors)
		}
		idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 1 || idx["0,1"] != fileFor("0,1") {
			t.Fatalf("index %q: torn tail garbled the index: %v", torn, idx)
		}
	}
}

// TestSnapshotDisabled pins the memory-only behavior.
func TestSnapshotDisabled(t *testing.T) {
	s := newTestServer(t, quickOpts())
	if _, err := s.Flush(); err != ErrNoSnapshotDir {
		t.Fatalf("Flush without a store: %v", err)
	}
	if _, err := s.Restore(); err != ErrNoSnapshotDir {
		t.Fatalf("Restore without a store: %v", err)
	}
}

// TestSnapshotStorm is the -race hammer for the durable path: concurrent
// Personalize/Predict/Restore with a tiny cache (constant evictions) on one
// snapshot directory. Afterwards every indexed record must re-read cleanly
// — no torn files, no key mismatches.
func TestSnapshotStorm(t *testing.T) {
	opts, dir := snapshotOpts(t)
	opts.CacheSize = 2
	s := newTestServer(t, opts)
	env := sharedEnv()

	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}}
	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				classes := sets[(c+r)%len(sets)]
				switch (c + r) % 4 {
				case 0:
					if _, _, err := s.Personalize(classes); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := s.PredictSamples(classes, 4); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Restore(); err != nil {
						t.Error(err)
						return
					}
				default:
					// Flush during live traffic: waits out in-flight
					// write-behinds while new ones are being registered.
					if _, err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("storm produced no evictions; cache pressure missing: %+v", st)
	}
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) == 0 {
		t.Fatal("storm left no snapshots behind")
	}
	for key, name := range idx {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		rec, err := checkpoint.LoadPersonalization(f, env.build())
		f.Close()
		if err != nil {
			t.Fatalf("torn or corrupt record %s for %q: %v", name, key, err)
		}
		if rec.Key != key {
			t.Fatalf("record %s holds key %q, indexed as %q", name, rec.Key, key)
		}
	}
}

// TestQuarantineKeepsPeerRecords: shards sharing a snapshot directory each
// journal their own appends, so a quarantining store's in-memory index may
// be stale. The de-index rewrite must merge the on-disk index first — a
// rewrite from the stale view would silently drop peers' records, turning
// each one's next failover restore into a needless re-prune. (Found by the
// chaos storm, now the cluster package's TestClusterStormE2E.)
func TestQuarantineKeepsPeerRecords(t *testing.T) {
	opts, dir := snapshotOpts(t)

	// Both stores open before any record exists, so neither sees the
	// other's appends except through refresh.
	s1 := newTestServer(t, opts)
	s2 := newTestServer(t, opts)
	if _, _, err := s1.Personalize([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Personalize([]int{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Flush(); err != nil {
		t.Fatal(err)
	}

	// Corrupt s2's own record on disk and force a cold load of it: the
	// quarantine runs on s2, whose in-memory index has never seen "1,2".
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	name, ok := idx["3,4"]
	if !ok {
		t.Fatalf("record for %q not indexed: %v", "3,4", idx)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.store.load("3,4", s2.base); err == nil {
		t.Fatal("load of corrupted record succeeded")
	}

	// The rewrite must have removed only the quarantined key.
	idx, err = checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx["3,4"]; ok {
		t.Fatal("quarantined key still on the shared index")
	}
	if _, ok := idx["1,2"]; !ok {
		t.Fatal("quarantine dropped a peer's record from the shared index")
	}

	// And a fresh store must still restore the peer's record.
	s3 := newTestServer(t, opts)
	n, err := s3.Restore()
	if err != nil || n != 1 {
		t.Fatalf("restore after peer quarantine: n=%d err=%v", n, err)
	}
	if st := s3.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("peer record re-pruned instead of restored: %+v", st)
	}
}

package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/nn"
)

// ErrNoSnapshotDir reports a snapshot operation on a server configured
// without Options.SnapshotDir.
var ErrNoSnapshotDir = errors.New("serve: snapshot store not configured")

// quarantineSuffix is appended to a corrupt record's filename when the
// store moves it aside: the bytes stay on disk for postmortems, but nothing
// will ever index or load them again.
const quarantineSuffix = ".quarantined"

// snapshotStore is the durable side of the engine cache: one personalization
// record — the tenant's metadata and its model delta, the bytes a warm entry
// holds — per personalized class set, plus an index file naming the records
// that are valid. Record writes go to a unique temp file — fsynced, then
// renamed into place, then the directory fsynced — so concurrent writers, a
// crash mid-write, and a power cut mid-rename can never leave a torn or
// vanishing record behind the index. All I/O goes through fs, the fault-
// injection seam (fault.OS in production).
type snapshotStore struct {
	dir string
	fs  fault.FS

	// mu guards index (in memory and its file): index rewrites must not
	// interleave.
	mu    sync.Mutex
	index checkpoint.Index
}

// openStore opens (creating if needed) a snapshot directory. An unreadable
// or corrupt index fails the server loudly: silently starting empty would
// orphan every existing record, and the next write would rewrite the index
// without them — the opposite of durability. (A write torn by a crash is
// not corruption: ReadIndex drops the partial tail entry.) The journal is
// compacted back to one entry per key on open.
func openStore(dir string, fsys fault.FS) (*snapshotStore, error) {
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	path := filepath.Join(dir, checkpoint.IndexFile)
	idx, err := checkpoint.ReadIndexFS(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot index: %w", err)
	}
	// Compact whenever the file exists — even to an empty index: this
	// truncates a torn tail left by a crash, so later appends never
	// concatenate onto a partial line.
	if _, statErr := fsys.Stat(path); statErr == nil {
		if err := checkpoint.WriteIndexFS(fsys, path, idx); err != nil {
			return nil, fmt.Errorf("serve: compacting snapshot index: %w", err)
		}
	}
	return &snapshotStore{dir: dir, fs: fsys, index: idx}, nil
}

// fileFor names the record file of a key. Keys can be arbitrarily long
// class lists, so the name is a hash; the index maps keys to names and the
// record itself carries the key, which load verifies against collisions.
func fileFor(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("p%016x.ckpt", h.Sum64())
}

// has reports whether a record for key is indexed.
func (st *snapshotStore) has(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.index[key]
	return ok
}

// count returns the number of indexed records (the cold-tier gauge).
func (st *snapshotStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.index)
}

// keys returns the indexed keys in sorted order.
func (st *snapshotStore) keys() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.index))
	for k := range st.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// refresh merges the on-disk index into memory. Shards sharing a snapshot
// directory each journal their own appends; the on-disk index is therefore
// a superset of any one shard's in-memory view, and merging (last write
// wins per key) lets this shard restore records its peers wrote after this
// store opened.
func (st *snapshotStore) refresh() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.mergeDiskLocked()
}

// mergeDiskLocked folds the on-disk index into st.index (last write wins
// per key). Callers hold st.mu.
func (st *snapshotStore) mergeDiskLocked() error {
	idx, err := checkpoint.ReadIndexFS(st.fs, filepath.Join(st.dir, checkpoint.IndexFile))
	if err != nil {
		return err
	}
	for k, name := range idx {
		st.index[k] = name
	}
	return nil
}

// put durably writes one tenant's record — rec's metadata over its delta —
// and indexes it. The order is load-bearing: the record bytes are fsynced
// BEFORE the rename publishes the name, and the directory is fsynced before
// the index acknowledges the key — a power cut at any instant leaves either
// the old state or the new, never a named-but-empty record. The named crash points mark the two
// instants a crash-point test kills the process at to prove exactly that.
func (st *snapshotStore) put(rec checkpoint.PersonalizationRecord, delta []byte) error {
	name := fileFor(rec.Key)
	tmp, err := st.fs.CreateTemp(st.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer st.fs.Remove(tmp.Name()) // no-op after a successful rename
	if err := checkpoint.WritePersonalization(tmp, rec, delta); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	fault.Crash("snapshot.before-rename")
	if err := st.fs.Rename(tmp.Name(), filepath.Join(st.dir, name)); err != nil {
		return err
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		return err
	}
	fault.Crash("snapshot.before-index")

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.index[rec.Key] == name {
		// Re-snapshot of an already-indexed key (e.g. healing a corrupt
		// record): the rename replaced the file, no journal entry needed.
		return nil
	}
	if err := checkpoint.AppendIndexFS(st.fs, filepath.Join(st.dir, checkpoint.IndexFile), rec.Key, name); err != nil {
		return err
	}
	st.index[rec.Key] = name
	return nil
}

// load reads the record for key: its metadata and its delta, which parses
// against base's architecture (checkpoint.ReadPersonalization). It returns
// errNoSnapshot when the key is not indexed; any other error means the
// record exists but could not be used (corrupt, truncated, missing, of
// another version or architecture, or a hash collision with another key).
// Unusable records are quarantined on the way out — see quarantine — so a
// bad snapshot costs one re-prune, not an error on every future restore.
func (st *snapshotStore) load(key string, base *nn.Classifier) (checkpoint.PersonalizationRecord, []byte, error) {
	var none checkpoint.PersonalizationRecord
	st.mu.Lock()
	name, ok := st.index[key]
	st.mu.Unlock()
	if !ok {
		return none, nil, errNoSnapshot
	}
	f, err := st.fs.Open(filepath.Join(st.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			// Indexed but gone: the record will never come back on its own.
			return none, nil, st.quarantine(key, name, err)
		}
		// Other open errors (permissions, transient I/O) may heal; leave
		// the index alone.
		return none, nil, err
	}
	defer f.Close()
	rec, delta, err := checkpoint.ReadPersonalization(f, base)
	if err != nil {
		return rec, nil, st.quarantine(key, name, fmt.Errorf("serve: snapshot %s: %w", name, err))
	}
	if rec.Key != key {
		return rec, nil, st.quarantine(key, name, fmt.Errorf("serve: snapshot %s holds key %q, want %q", name, rec.Key, key))
	}
	return rec, delta, nil
}

// quarantine takes a record the store can no longer trust out of service:
// the file is moved aside (kept for postmortems, never loaded again), the
// key is de-indexed, and the rewritten index is published atomically. The
// next personalization of the key falls through to a fresh pruning run,
// which re-snapshots over the slot — so corruption degrades to one re-prune
// instead of a restore error on every request forever. The returned error
// wraps both cause and errSnapshotQuarantined (the caller's counter hook).
func (st *snapshotStore) quarantine(key, name string, cause error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.index[key] != name {
		// A concurrent writer already replaced the record; nothing to do.
		return cause
	}
	// Shards share the directory: peers journal appends this store may not
	// have refreshed into memory yet, and rewriting the index from a stale
	// view would silently drop their records — turning each one's next
	// restore into a needless re-prune. Merge the on-disk index first so
	// the rewrite removes only the quarantined key. Best effort: on a read
	// error the local view still de-indexes correctly for this process.
	if err := st.mergeDiskLocked(); err == nil && st.index[key] != name {
		// A peer re-snapshotted this key while we held the bad record;
		// its fresh version supersedes the quarantine.
		return cause
	}
	// Best effort: if the move itself fails the de-index below still keeps
	// the record from ever being loaded again.
	_ = st.fs.Rename(filepath.Join(st.dir, name), filepath.Join(st.dir, name+quarantineSuffix))
	delete(st.index, key)
	if err := checkpoint.WriteIndexFS(st.fs, filepath.Join(st.dir, checkpoint.IndexFile), st.index); err != nil {
		// The in-memory de-index holds for this process; the on-disk entry
		// now points at a missing file, which quarantines again on restart.
		return fmt.Errorf("%w (de-indexing failed: %v): %w", cause, err, errSnapshotQuarantined)
	}
	return fmt.Errorf("%w: %w", cause, errSnapshotQuarantined)
}

// errNoSnapshot distinguishes "never snapshotted" (a plain cache miss) from
// a record that exists but fails to load (counted in Stats.RestoreErrors).
var errNoSnapshot = errors.New("serve: no snapshot for key")

// errSnapshotQuarantined tags load errors whose record was moved aside and
// de-indexed (counted in Stats.SnapshotsQuarantined).
var errSnapshotQuarantined = errors.New("record quarantined")

// restoreOne rebuilds a Personalization from its disk record: the record's
// delta is admitted like any other tenant's, and no model is built to do it
// — compiled CSR/CRISP buffers are never persisted, so the on-disk format
// stays independent of the kernel layout. On an Int8 server that
// compilation re-quantizes: snapshot records are precision-agnostic (float
// values + masks), and because quantization is deterministic the restored
// engine carries exactly the pre-restart codes (Engine.QuantSignature pins
// this); the agreement measurement is re-run on the same deterministic
// held-out split. Like a warm entry, a record restores the tenant it
// acknowledged over any universal model of its architecture.
func (s *Server) restoreOne(key string) (*Personalization, error) {
	defer s.clock(&s.stats.RestoreNanos, time.Now())
	rec, delta, err := s.loadRecord(key)
	if err != nil {
		return nil, err
	}
	return s.admit(&warmEntry{key: key, classes: rec.Classes, report: rec.Report, accuracy: rec.Accuracy, delta: delta})
}

// loadRecord is store.load counting a quarantined record
// (Stats.SnapshotsQuarantined): the one read of a record, made by a cold
// restore and by a durable Int8 tenant's deltaOf alike.
func (s *Server) loadRecord(key string) (checkpoint.PersonalizationRecord, []byte, error) {
	rec, delta, err := s.store.load(key, s.base)
	if errors.Is(err, errSnapshotQuarantined) {
		s.mu.Lock()
		s.stats.SnapshotsQuarantined++
		s.mu.Unlock()
	}
	return rec, delta, err
}

// Restore rebuilds engines from indexed snapshot records and inserts them
// into the cache (the warm-restart path), stopping once the cache is full:
// building engines the LRU would immediately evict is wasted startup time,
// and the miss path restores any remaining key lazily on first request.
// Records that fail to load are skipped and counted in
// Stats.RestoreErrors — a corrupt snapshot must never take the server
// down. It returns the number restored; keys already cached are left
// untouched. Restore is safe to run concurrently with serving traffic.
func (s *Server) Restore() (int, error) {
	if s.store == nil {
		return 0, ErrNoSnapshotDir
	}
	restored := 0
	for _, key := range s.store.keys() {
		s.mu.Lock()
		_, cached := s.entries[key]
		full := s.hotFullLocked()
		s.mu.Unlock()
		if full {
			break
		}
		if cached {
			continue
		}
		p, err := s.restoreOne(key)
		if err != nil {
			s.mu.Lock()
			s.stats.RestoreErrors++
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		// A concurrent personalization may have cached the key while the
		// engine compiled; only a real insert counts as a restore.
		if s.insertLocked(key, p) {
			s.stats.RestoreHits++
			restored++
		}
		s.mu.Unlock()
	}
	// Engine sizes are only known after compilation, so a byte-budgeted
	// restore can overshoot by one engine; settle the tiers before serving.
	s.rebalance()
	return restored, nil
}

// Flush waits for pending write-behind snapshots, then synchronously writes
// every resident tenant — hot, or a warm record whose write at demotion
// failed — that is not yet on disk (the explicit-flush admin path). It
// returns the number of records written; write failures are counted in
// Stats.SnapshotErrors and the first one is returned.
func (s *Server) Flush() (int, error) {
	if s.store == nil {
		return 0, ErrNoSnapshotDir
	}
	s.pendingWait(&s.pendingSnaps)

	s.mu.Lock()
	var hot []*Personalization
	var warm []*warmEntry
	for _, el := range s.entries {
		if p := el.Value.(*Personalization); !s.store.has(p.Key) {
			hot = append(hot, p)
		}
	}
	for _, el := range s.warm {
		if we := el.Value.(*warmEntry); !s.store.has(we.key) {
			warm = append(warm, we)
		}
	}
	s.mu.Unlock()

	written := 0
	var firstErr error
	tally := func(err error) {
		if err == nil {
			written++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range hot {
		tally(s.snapshotHot(p))
	}
	for _, we := range warm {
		tally(s.writeSnapshot(we.record(), we.delta))
	}
	return written, firstErr
}

// scheduleSnapshot queues the write-behind snapshot of p on the worker
// pool: personalization latency and Predict never wait on disk. The
// pending write was already registered (pendingSnaps) by the pruning job
// itself (see personalize), so a personalization completed before Close
// returns is never lost — Close drains the jobs and then waits out the
// registered writes; on a closed pool they run inline.
func (s *Server) scheduleSnapshot(p *Personalization) {
	go func() {
		defer s.pendingDone(&s.pendingSnaps)
		s.pool.Do(func() { s.snapshotHot(p) })
	}()
}

// snapshotHot writes a hot tenant's record from its delta (deltaOf). Once
// the store has acknowledged the record, an Int8 tenant drops the delta it
// held (dropDelta): the record is the delta now. Never before — a tenant
// whose write failed keeps its delta, for the next demotion or Flush.
func (s *Server) snapshotHot(p *Personalization) error {
	delta, err := s.deltaOf(p)
	if err != nil {
		s.mu.Lock()
		s.stats.SnapshotErrors++
		s.mu.Unlock()
		return err
	}
	if err := s.writeSnapshot(p.record(), delta); err != nil {
		return err
	}
	s.dropDelta(p)
	return nil
}

// writeSnapshot persists one tenant's record — its metadata over its delta,
// the bytes a warm entry holds — and updates the counters.
func (s *Server) writeSnapshot(rec checkpoint.PersonalizationRecord, delta []byte) error {
	err := s.store.put(rec, delta)
	s.mu.Lock()
	if err != nil {
		s.stats.SnapshotErrors++
	} else {
		s.stats.SnapshotWrites++
	}
	s.mu.Unlock()
	return err
}

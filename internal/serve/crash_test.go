package serve

// Crash-point and disk-fault tests for the snapshot store. The crash tests
// re-exec this test binary with fault.CrashEnv set; the child arms the named
// crash point, runs one store.put, and dies with fault.CrashExitCode at the
// armed instant — a real process death between two syscalls, not a mock.
// The parent then reopens the directory the way a restarted server would
// and asserts what survived.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
)

const (
	crashDirEnv     = "CRISP_SNAPSHOT_CRASH_DIR"
	crashKeyEnv     = "CRISP_SNAPSHOT_CRASH_KEY"
	crashPerturbEnv = "CRISP_SNAPSHOT_CRASH_PERTURB"
)

// crashClassifier builds the deterministic model both the helper process and
// the parent use: same seed, same architecture, so the parent can verify the
// surviving record bit-for-bit without shipping weights across processes.
func crashClassifier() *nn.Classifier {
	return models.Build(models.ResNet, rand.New(rand.NewSource(41)), 6, 1)
}

// crashDelta is the delta a crash helper writes: crashClassifier's, with its
// first weight perturbed when perturb is set.
func crashDelta(t testing.TB, perturb bool) []byte {
	t.Helper()
	clf := crashClassifier()
	if perturb {
		clf.Params()[0].W.Data[0] = 123.456
	}
	delta, err := checkpoint.EncodeModelDelta(clf, clf)
	if err != nil {
		t.Fatal(err)
	}
	return delta
}

// TestCrashHelperProcess is the subprocess body; it only runs when the
// parent test sets crashDirEnv. It writes one record for crashKeyEnv into
// the snapshot store, dying at whatever crash point fault.CrashEnv names.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("helper process for the crash tests; driven by runCrashHelper")
	}
	fault.ArmCrashFromEnv()
	st, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := os.Getenv(crashKeyEnv)
	rec := checkpoint.PersonalizationRecord{Key: key, Classes: []int{1, 2}, Accuracy: 0.5}
	if err := st.put(rec, crashDelta(t, os.Getenv(crashPerturbEnv) == "1")); err != nil {
		t.Fatal(err)
	}
}

// runCrashHelper re-execs the test binary as a crash helper. point "" means
// run to completion (exit 0); a named crash point must kill the child with
// fault.CrashExitCode — anything else (including the point never firing)
// fails the parent test.
func runCrashHelper(t *testing.T, dir, point, key string, perturb bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashDirEnv+"="+dir,
		crashKeyEnv+"="+key,
		fault.CrashEnv+"="+point,
	)
	if perturb {
		cmd.Env = append(cmd.Env, crashPerturbEnv+"=1")
	}
	out, err := cmd.CombinedOutput()
	if point == "" {
		if err != nil {
			t.Fatalf("helper (no crash point) failed: %v\n%s", err, out)
		}
		return
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != fault.CrashExitCode {
		t.Fatalf("helper at %q exited %v, want crash exit %d\n%s", point, err, fault.CrashExitCode, out)
	}
}

// TestCrashBeforeRenamePreservesPriorRecord kills the writer after the new
// record bytes are written and fsynced but before the rename publishes them,
// while overwriting an existing durable record. The prior record must
// survive untouched: a crash mid-replacement may cost the update, never the
// acknowledged state.
func TestCrashBeforeRenamePreservesPriorRecord(t *testing.T) {
	dir := t.TempDir()
	runCrashHelper(t, dir, "", "1,2", false)                      // durable v1
	runCrashHelper(t, dir, "snapshot.before-rename", "1,2", true) // v2 dies pre-publish
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 1 {
		t.Fatalf("want exactly the orphaned temp file from the crash, got %v", tmps)
	}

	st, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	clone := crashClassifier()
	want := clone.Params()[0].W.Data[0] // v1 value, rebuilt from the seed
	rec, delta, err := st.load("1,2", clone)
	if err != nil {
		t.Fatalf("prior record did not survive the crash: %v", err)
	}
	if rec.Key != "1,2" {
		t.Fatalf("restored key %q", rec.Key)
	}
	if !bytes.Equal(delta, crashDelta(t, false)) {
		t.Fatal("restored delta is not the pre-crash one")
	}
	clone.Params()[0].W.Data[0] = 0
	if err := checkpoint.ApplyModelDelta(delta, clone, clone); err != nil {
		t.Fatal(err)
	}
	if got := clone.Params()[0].W.Data[0]; got != want || got == 123.456 {
		t.Fatalf("restored weight %v, want pre-crash value %v", got, want)
	}
}

// TestCrashBeforeIndexLeavesCleanMiss kills the writer after the record is
// renamed into place and the directory fsynced, but before the index entry
// acknowledges it. The key must read as a clean miss (errNoSnapshot, no
// error, no quarantine) and a later put of the same key must index normally.
func TestCrashBeforeIndexLeavesCleanMiss(t *testing.T) {
	dir := t.TempDir()
	runCrashHelper(t, dir, "snapshot.before-index", "3,4", false)
	name := fileFor("3,4")
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatalf("renamed record missing, crash fired too early: %v", err)
	}

	st, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.load("3,4", crashClassifier()); !errors.Is(err, errNoSnapshot) {
		t.Fatalf("unacknowledged record must be a clean miss, got %v", err)
	}
	// The slot heals: re-putting the key publishes and indexes normally.
	rec := checkpoint.PersonalizationRecord{Key: "3,4", Classes: []int{1, 2}, Accuracy: 0.5}
	if err := st.put(rec, crashDelta(t, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.load("3,4", crashClassifier()); err != nil {
		t.Fatalf("re-put record failed to load: %v", err)
	}
}

// TestSnapshotPutFsyncOrdering pins the durability dance with a pure-recorder
// FaultFS: record fsync strictly before the rename, directory fsync after
// it, and the index append fsynced last. Reordering any of these reopens
// the power-cut window the crash tests close.
func TestSnapshotPutFsyncOrdering(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(1), fault.DiskFaults{})
	ffs.EnableTrace()
	st, err := openStore(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.PersonalizationRecord{Key: "1,2", Classes: []int{1, 2}, Accuracy: 0.5}
	if err := st.put(rec, crashDelta(t, false)); err != nil {
		t.Fatal(err)
	}

	ops := ffs.Trace()
	find := func(what string, pred func(fault.Op) bool) int {
		for i, op := range ops {
			if pred(op) {
				return i
			}
		}
		t.Fatalf("no %s in trace %v", what, ops)
		return -1
	}
	syncTmp := find("temp-file sync", func(op fault.Op) bool {
		return op.Kind == "sync" && strings.HasSuffix(op.Name, ".tmp")
	})
	rename := find("record rename", func(op fault.Op) bool {
		return op.Kind == "rename" && op.Name == fileFor("1,2")
	})
	syncDir := find("directory sync", func(op fault.Op) bool { return op.Kind == "syncdir" })
	syncIdx := find("index sync", func(op fault.Op) bool {
		return op.Kind == "sync" && op.Name == checkpoint.IndexFile
	})
	if !(syncTmp < rename && rename < syncDir && syncDir < syncIdx) {
		t.Fatalf("durability order violated: sync(tmp)=%d rename=%d syncdir=%d sync(index)=%d\n%v",
			syncTmp, rename, syncDir, syncIdx, ops)
	}
}

// TestSnapshotPutWritesByTheChunk: a record goes to disk a checkpoint chunk
// (4 KiB) at a time, not a field at a time. The codec used to make one
// write call per float — each a syscall on a real file, ~5 000 for the
// 43 KB dense record this test wrote — while the put held a pool worker
// beside the predict lanes. The record is now the tenant's delta: here half
// of every prunable weight kept, 23 711 bytes of delta.
func TestSnapshotPutWritesByTheChunk(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(1), fault.DiskFaults{})
	st, err := openStore(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	before := ffs.Stats().Writes
	rec := checkpoint.PersonalizationRecord{Key: "1,2", Classes: []int{1, 2}, Accuracy: 0.5}
	clf := models.Build(models.Transformer, rand.New(rand.NewSource(42)), 6, 1)
	for _, p := range clf.PrunableParams() {
		m := p.EnsureMask()
		for j := range m.Data {
			m.Data[j] = float64(j % 2)
		}
	}
	delta, err := checkpoint.EncodeModelDelta(clf, clf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.put(rec, delta); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, fileFor("1,2")))
	if err != nil {
		t.Fatal(err)
	}
	writes, limit := ffs.Stats().Writes-before, uint64(info.Size()/4096+8)
	if writes > limit {
		t.Fatalf("put of a %d-byte record issued %d writes, want at most %d", info.Size(), writes, limit)
	}
}

// TestSnapshotWriteFaultsCountedAndHeal runs a server whose snapshot disk
// refuses every record write (injected ENOSPC): snapshots fail and are
// counted, nothing is indexed, serving continues — and once the disk heals,
// an explicit Flush writes the record with no restart.
func TestSnapshotWriteFaultsCountedAndHeal(t *testing.T) {
	ckptOnly := func(name string) bool { return strings.Contains(filepath.Base(name), ".ckpt") }
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(11), fault.DiskFaults{WriteErr: 1, Match: ckptOnly})
	opts, _ := snapshotOpts(t)
	opts.FS = ffs
	s := newTestServer(t, opts)

	if _, _, err := s.Personalize([]int{1, 2}); err != nil {
		t.Fatal(err) // serving must not depend on the snapshot disk
	}
	if n, err := s.Flush(); err == nil || n != 0 {
		t.Fatalf("Flush on a failing disk wrote %d (err %v), want 0 and an error", n, err)
	}
	st := s.Stats()
	if st.SnapshotErrors == 0 || st.ColdRecords != 0 {
		t.Fatalf("failed writes not accounted: %+v", st)
	}

	ffs.SetEnabled(false) // the disk heals
	if n, err := s.Flush(); err != nil || n != 1 {
		t.Fatalf("Flush after healing wrote %d (%v), want 1", n, err)
	}
}

// TestRestoreBitFlipQuarantines flips one bit per read on the record files:
// every restore must fail closed on the checksum (never serve perturbed
// logits), quarantine the record, and leave the key to a fresh re-prune.
func TestRestoreBitFlipQuarantines(t *testing.T) {
	opts, dir := snapshotOpts(t)
	s1 := newTestServer(t, opts)
	if _, _, err := s1.Personalize([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}

	ckptOnly := func(name string) bool { return strings.Contains(filepath.Base(name), ".ckpt") }
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(23), fault.DiskFaults{ReadFlip: 1, Match: ckptOnly})
	opts.FS = ffs
	s2 := newTestServer(t, opts)
	n, err := s2.Restore()
	if err != nil || n != 0 {
		t.Fatalf("Restore over a corrupting disk: n=%d err=%v, want 0 restored and no hard error", n, err)
	}
	st := s2.Stats()
	if st.RestoreErrors != 1 || st.SnapshotsQuarantined != 1 {
		t.Fatalf("corrupt record not quarantined: %+v", st)
	}
	if ffs.Stats().ReadFlips == 0 {
		t.Fatal("fault layer never fired; test is vacuous")
	}
	if _, err := os.Stat(filepath.Join(dir, fileFor("1,2")+quarantineSuffix)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}

	ffs.SetEnabled(false)
	p, _, err := s2.Personalize([]int{1, 2})
	if err != nil || p.Engine() == nil {
		t.Fatalf("quarantined key did not re-personalize: %v", err)
	}
	if st := s2.Stats(); st.Personalizations != 1 {
		t.Fatalf("want exactly one re-prune, got %+v", st)
	}
}

// TestInt8TenantIsNeverStranded: an Int8 tenant drops the delta it holds
// only once the store has acknowledged its record, so no tenant is ever left
// with neither. While every record write fails, a hot tenant keeps its delta
// (and is charged for it), and its demotion parks that delta as a warm
// record. Once the disk heals, Flush writes both tenants, and the hot one
// drops its delta; a promotion of the durable one retains none. Then the
// record of the delta-less hot tenant goes bad on disk: the demotion that
// would read it back quarantines it instead and parks nothing, and the next
// request re-prunes the tenant, once, to the oracle's engine.
func TestInt8TenantIsNeverStranded(t *testing.T) {
	ckptOnly := func(name string) bool { return strings.Contains(filepath.Base(name), ".ckpt") }
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(31), fault.DiskFaults{WriteErr: 1, Match: ckptOnly})
	opts, dir := snapshotOpts(t)
	opts.FS = ffs
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	opts.Precision = inference.Int8
	s := newTestServer(t, opts)
	a, b := []int{1, 3}, []int{0, 2}
	pa, _, err := s.Personalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Flush(); err == nil || n != 0 {
		t.Fatalf("Flush on a failing disk wrote %d (err %v), want 0 and an error", n, err)
	}
	checkHeld(t, "write failed", s, pa, true)

	pb, _, err := s.Personalize(b) // demotes a, whose write fails again
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	el := s.warm[pa.Key]
	s.mu.Unlock()
	if el == nil || el.Value.(*warmEntry).delta == nil {
		t.Fatalf("a tenant whose writes failed was not demoted to a warm record: %+v", s.Stats())
	}
	if n, err := s.Flush(); err == nil || n != 0 { // waits out b's write-behind
		t.Fatalf("Flush on a failing disk wrote %d (err %v), want 0 and an error", n, err)
	}
	checkHeld(t, "write failed", s, pb, true)
	if st := s.Stats(); st.ColdRecords != 0 || st.SnapshotErrors < 3 {
		t.Fatalf("failed writes not accounted: %+v", st)
	}

	ffs.SetEnabled(false) // the disk heals
	if n, err := s.Flush(); err != nil || n != 2 {
		t.Fatalf("Flush after healing wrote %d (%v), want the hot and the warm tenant", n, err)
	}
	checkHeld(t, "flushed", s, pb, false)
	if st := s.Stats(); st.HotBytes != pb.engine.MemoryFootprint()+personalizationOverheadBytes {
		t.Fatalf("HotBytes %d after the drop, want the one tenant's engine + overhead", st.HotBytes)
	}

	if pa, _, err = s.Personalize(a); err != nil { // promotes a, demotes b from its record
		t.Fatal(err)
	}
	checkHeld(t, "promoted durable", s, pa, false)
	before := s.Stats()
	if before.Promotions != 1 || before.Personalizations != 2 || before.WarmEntries != 1 || before.SnapshotsQuarantined != 0 {
		t.Fatalf("expected a warm promotion of a and b demoted from its record: %+v", before)
	}

	// a is hot and holds no delta; its record is all it has.
	path := filepath.Join(dir, fileFor(pa.Key))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Personalize(b); err != nil { // promotes b, demotes a
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotsQuarantined != before.SnapshotsQuarantined+1 || st.WarmEntries != 0 || st.Demotions != before.Demotions {
		t.Fatalf("a demotion over a bad record did not quarantine it and park nothing: %+v", st)
	}
	if pa, _, err = s.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Personalizations != before.Personalizations+1 {
		t.Fatalf("want exactly one re-prune of the quarantined tenant, got %+v", st)
	}
	if got, want := pa.Engine().QuantSignature(), oracle(t, s.opts.Prune, opts.TrainPerClass, a, inference.Int8).QuantSignature(); got != want {
		t.Fatalf("re-pruned engine's quant signature %016x, the oracle's is %016x", got, want)
	}
}

package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// stubBatcher builds a batcher around a fake engine for deterministic
// protocol tests: every sample is a single [1,1,1,1] tensor whose one value
// identifies the submitting request, and the fake engine "predicts" that
// value back, so each caller can verify it received exactly its own rows.
func stubBatcher(maxBatch int, linger time.Duration, maxQueue int) (*batcher, *predictCounters) {
	c := &predictCounters{}
	b := &batcher{
		eng: predictFunc(func(xs []*tensor.Tensor) []int {
			var preds []int
			for _, x := range xs {
				for r := 0; r < x.Shape[0]; r++ {
					preds = append(preds, int(x.Data[r]))
				}
			}
			return preds
		}),
		maxBatch: maxBatch,
		linger:   linger,
		maxQueue: maxQueue,
		counters: c,
		kick:     make(chan struct{}, 1),
	}
	return b, c
}

// predictFunc is a fake engine: its PredictBatch is the function.
type predictFunc func([]*tensor.Tensor) []int

func (f predictFunc) PredictBatch(xs []*tensor.Tensor) []int { return f(xs) }

// sample builds a 1-sample [1,1,1,1] tensor carrying id.
func sample(id int) *tensor.Tensor {
	return tensor.FromSlice([]float64{float64(id)}, 1, 1, 1, 1)
}

// TestBatcherLingerFlush: a lone request must not wait for MaxBatch samples
// that never arrive — the linger timer flushes it.
func TestBatcherLingerFlush(t *testing.T) {
	b, c := stubBatcher(100, 5*time.Millisecond, 100)
	start := time.Now()
	preds, err := b.submit(sample(7), QoSStandard, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != 7 {
		t.Fatalf("preds %v, want [7]", preds)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone request waited %v; linger flush broken", waited)
	}
	if got := c.flushLinger.Load(); got != 1 {
		t.Fatalf("flushLinger %d, want 1", got)
	}
	if got := c.flushSize.Load(); got != 0 {
		t.Fatalf("flushSize %d, want 0", got)
	}
	if got := c.queued.Load(); got != 0 {
		t.Fatalf("queue gauge %d after flush, want 0", got)
	}
}

// TestBatcherSizeFlushCoalesces: with an effectively infinite linger, the
// queue reaching MaxBatch is what flushes — and all requests share one
// engine invocation, each receiving its own rows.
func TestBatcherSizeFlushCoalesces(t *testing.T) {
	const n = 4
	b, c := stubBatcher(n, time.Minute, 100)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			preds, err := b.submit(sample(id), QoSStandard, time.Time{})
			if err != nil {
				t.Error(err)
				return
			}
			if len(preds) != 1 || preds[0] != id {
				t.Errorf("request %d got %v", id, preds)
			}
		}(i)
	}
	wg.Wait()
	if got := c.batches.Load(); got != 1 {
		t.Fatalf("batches %d, want 1 (requests did not coalesce)", got)
	}
	if got := c.samples.Load(); got != n {
		t.Fatalf("samples %d, want %d", got, n)
	}
	if got := c.flushSize.Load(); got != 1 {
		t.Fatalf("flushSize %d, want 1", got)
	}
	// n=4 lands in histogram bucket 2 (bounds 1,2,4,8,...).
	if got := c.hist[2].Load(); got != 1 {
		t.Fatalf("hist[2] %d, want 1 (hist %v)", got, &c.hist)
	}
}

// TestBatcherAdmissionControl: a full queue rejects with ErrOverloaded
// instead of queueing; already-admitted requests still complete.
func TestBatcherAdmissionControl(t *testing.T) {
	const cap = 4
	b, c := stubBatcher(100, time.Minute, cap)
	var wg sync.WaitGroup
	wg.Add(cap)
	for i := 0; i < cap; i++ {
		go func(id int) {
			defer wg.Done()
			if _, err := b.submit(sample(id), QoSStandard, time.Time{}); err != nil {
				t.Errorf("admitted request %d failed: %v", id, err)
			}
		}(i)
	}
	waitFor(t, func() bool { return c.queued.Load() == cap })

	if _, err := b.submit(sample(99), QoSStandard, time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit returned %v, want ErrOverloaded", err)
	}
	if got := c.rejected.Load(); got != 1 {
		t.Fatalf("rejected %d, want 1", got)
	}
	b.forceFlush()
	wg.Wait()
	if got := c.queued.Load(); got != 0 {
		t.Fatalf("queue gauge %d after flush, want 0", got)
	}
	// A forced partial batch is its own flush class — not a size flush
	// (the queue never reached MaxBatch) and not a linger flush.
	if got := c.flushForced.Load(); got != 1 {
		t.Fatalf("flushForced %d, want 1", got)
	}
	if c.flushSize.Load() != 0 || c.flushLinger.Load() != 0 {
		t.Fatalf("forced flush miscounted: size=%d linger=%d", c.flushSize.Load(), c.flushLinger.Load())
	}
}

// TestBatcherOversizeRequestAdmitted: a request larger than MaxQueue is
// still admitted when the queue is empty (it could never be admitted
// otherwise) and flushes as its own batch.
func TestBatcherOversizeRequestAdmitted(t *testing.T) {
	b, c := stubBatcher(4, time.Minute, 4)
	x := tensor.New(8, 1, 1, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	preds, err := b.submit(x, QoSStandard, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 8 {
		t.Fatalf("preds %v, want 8 rows", preds)
	}
	for i, p := range preds {
		if p != i {
			t.Fatalf("row %d predicted %d", i, p)
		}
	}
	if got := c.flushSize.Load(); got != 1 {
		t.Fatalf("flushSize %d, want 1 (8 samples >= MaxBatch must flush immediately)", got)
	}
}

// TestBatcherPanicFansOutError: a poisoned batch must fail every rider with
// an error, never strand followers behind a dead leader.
func TestBatcherPanicFansOutError(t *testing.T) {
	b, _ := stubBatcher(3, time.Minute, 100)
	b.eng = predictFunc(func([]*tensor.Tensor) []int { panic("kernel exploded") })
	const n = 3
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.submit(sample(i), QoSStandard, time.Time{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
			t.Fatalf("request %d error %v, want the batch panic surfaced", i, err)
		}
	}
}

// waitFor polls cond up to ~5s; the storm tests use it instead of sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// splitRows cuts a [N,C,H,W] batch into N single-sample tensors.
func splitRows(x *tensor.Tensor) []*tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	vol := c * h * w
	out := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = tensor.FromSlice(x.Data[i*vol:(i+1)*vol], 1, c, h, w)
	}
	return out
}

// TestServeBatchedPredictBitIdentical is the tentpole invariant: Predict
// through the dynamic batcher — with every request verifiably coalesced
// into ONE engine invocation — returns exactly what the pre-batching solo
// path (a direct engine call per request) returns.
func TestServeBatchedPredictBitIdentical(t *testing.T) {
	opts := quickOpts()
	opts.MaxBatch = 100 // only forceFlush (or linger) flushes
	opts.Linger = 30 * time.Second
	opts.MaxQueue = 100
	s := newTestServer(t, opts)
	p, _, err := s.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	split := s.ds.MakeSplit("batcher-bitident", []int{1, 3}, 6)
	xs := splitRows(split.X)

	// Ground truth: the solo path, one engine call per sample.
	solo := make([][]int, len(xs))
	for i, x := range xs {
		solo[i] = p.engine.Predict(x)
	}

	got := make([][]int, len(xs))
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for i, x := range xs {
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			preds, err := s.Predict([]int{1, 3}, x)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = preds
		}(i, x)
	}
	waitFor(t, func() bool { return s.Stats().QueueDepth == len(xs) })
	p.bat.forceFlush()
	wg.Wait()

	for i := range xs {
		if len(got[i]) != 1 || got[i][0] != solo[i][0] {
			t.Fatalf("sample %d: batched %v vs solo %v", i, got[i], solo[i])
		}
	}
	st := s.Stats()
	if st.PredictBatches != 1 {
		t.Fatalf("PredictBatches %d, want 1 (all requests in one shared batch)", st.PredictBatches)
	}
	if st.SamplesPredicted != uint64(len(xs)) {
		t.Fatalf("SamplesPredicted %d, want %d", st.SamplesPredicted, len(xs))
	}
	// 12 samples (6 per class × 2 classes): histogram bucket ≤16.
	if st.BatchSizeHist[4] != 1 {
		t.Fatalf("batch size histogram %v, want one batch in the ≤16 bucket", st.BatchSizeHist)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after flush, want 0", st.QueueDepth)
	}
	if st.PredictNS == 0 {
		t.Fatal("PredictNS not recorded")
	}
	if st.FlushForced != 1 || st.FlushSize != 0 || st.FlushLinger != 0 {
		t.Fatalf("flush accounting forced=%d size=%d linger=%d, want 1/0/0", st.FlushForced, st.FlushSize, st.FlushLinger)
	}
}

// TestServePredictOverload drives admission control end to end through
// Server.Predict: with the queue pinned full by a lingering leader, the
// next request is rejected with ErrOverloaded.
func TestServePredictOverload(t *testing.T) {
	opts := quickOpts()
	opts.MaxBatch = 100
	opts.Linger = 30 * time.Second
	opts.MaxQueue = 2
	s := newTestServer(t, opts)
	p, _, err := s.Personalize([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	split := s.ds.MakeSplit("batcher-overload", []int{0, 2}, 2)
	xs := splitRows(split.X)

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict([]int{0, 2}, xs[i]); err != nil {
				t.Errorf("admitted predict failed: %v", err)
			}
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().QueueDepth == 2 })
	if _, err := s.Predict([]int{0, 2}, xs[2]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow predict returned %v, want ErrOverloaded", err)
	}
	p.bat.forceFlush()
	wg.Wait()
	st := s.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected %d, want 1", st.Rejected)
	}
}

// TestServePredictRejectsBadShape: shape validation happens at admission,
// before a malformed tensor can poison a shared batch.
func TestServePredictRejectsBadShape(t *testing.T) {
	s := newTestServer(t, quickOpts())
	if _, err := s.Predict([]int{1, 2}, tensor.New(1, 3, 4, 4)); err == nil {
		t.Fatal("wrong H×W must be rejected")
	}
	if _, err := s.Predict([]int{1, 2}, tensor.New(3, 8, 8)); err == nil {
		t.Fatal("rank-3 input must be rejected")
	}
	if _, err := s.Predict([]int{1, 2}, nil); err == nil {
		t.Fatal("nil input must be rejected")
	}
}

// TestBatchedPredictAcrossRestore: the bit-identical invariant holds across
// a snapshot restore — a warm-restarted server's batched Predict returns
// exactly what the original server's solo engine returned.
func TestBatchedPredictAcrossRestore(t *testing.T) {
	dir := t.TempDir()
	opts := quickOpts()
	opts.SnapshotDir = dir
	opts.MaxBatch = 8
	opts.Linger = time.Millisecond
	env := sharedEnv()

	s1, err := NewServer(env.build, env.base, env.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := s1.Personalize([]int{2, 4})
	if err != nil {
		s1.Close()
		t.Fatal(err)
	}
	split := env.ds.MakeSplit("batcher-restore", []int{2, 4}, 4)
	xs := splitRows(split.X)
	solo := make([]int, len(xs))
	for i, x := range xs {
		solo[i] = p1.engine.Predict(x)[0]
	}
	s1.Close() // drains the write-behind snapshot

	s2, err := NewServer(env.build, env.base, env.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if n, err := s2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for i, x := range xs {
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			preds, err := s2.Predict([]int{2, 4}, x)
			if err != nil {
				t.Error(err)
				return
			}
			if preds[0] != solo[i] {
				t.Errorf("sample %d: restored batched %d vs original solo %d", i, preds[0], solo[i])
			}
		}(i, x)
	}
	wg.Wait()
	if st := s2.Stats(); st.Personalizations != 0 {
		t.Fatalf("restored server re-pruned %d times; restore path broken", st.Personalizations)
	}
}

// TestBatchingStormRace is the -race hammer for the batching era: one
// snapshotting server with a tiny LRU under concurrent Predict fan-in (the
// batched hot path), Personalize-driven eviction, write-behind snapshots,
// explicit Flush and a live Restore — all at once.
func TestBatchingStormRace(t *testing.T) {
	opts := quickOpts()
	opts.SnapshotDir = t.TempDir()
	opts.CacheSize = 2
	opts.MaxBatch = 4
	opts.Linger = 500 * time.Microsecond
	opts.MaxQueue = 64
	s := newTestServer(t, opts)

	sets := [][]int{{0, 1}, {1, 2}, {2, 3}}
	// Pre-build one split per set so the storm goroutines only predict.
	inputs := make([][]*tensor.Tensor, len(sets))
	for i, set := range sets {
		inputs[i] = splitRows(s.ds.MakeSplit("storm", set, 2).X)
	}

	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(sets)
				switch {
				case c == 0 && r == rounds-1:
					if _, err := s.Flush(); err != nil {
						t.Errorf("flush: %v", err)
					}
				case c == 1 && r == rounds-1:
					if _, err := s.Restore(); err != nil {
						t.Errorf("restore: %v", err)
					}
				default:
					x := inputs[i][(c+r)%len(inputs[i])]
					preds, err := s.Predict(sets[i], x)
					if errors.Is(err, ErrOverloaded) {
						continue // admission control under the storm is fine
					}
					if err != nil {
						t.Errorf("predict: %v", err)
						return
					}
					if len(preds) != 1 || preds[0] < 0 || preds[0] >= 6 {
						t.Errorf("bad prediction %v", preds)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth stuck at %d", st.QueueDepth)
	}
	if st.SamplesPredicted == 0 || st.PredictBatches == 0 {
		t.Fatalf("storm predicted nothing: %+v", st)
	}
	if st.SamplesPredicted < st.PredictBatches {
		t.Fatalf("accounting inverted: %d samples over %d batches", st.SamplesPredicted, st.PredictBatches)
	}
}

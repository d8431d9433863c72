package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
)

// testEnv is the shared fixture: one tiny dataset and one lightly
// pre-trained universal model; each test builds its own Server around
// clones, so servers never interfere.
type testEnv struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

// sharedEnv is what every test server is built from. oracleEnv is a second
// build of it, pre-trained afresh, that only the oracle (tier_test.go)
// touches.
var (
	sharedEnv = sync.OnceValue(newTestEnv)
	oracleEnv = sync.OnceValue(newTestEnv)
)

func newTestEnv() *testEnv {
	cfg := data.Config{Name: "serve-test", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 5}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(41)), cfg.NumClasses, 1)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 42)
	return &testEnv{ds: ds, build: build, base: base}
}

// quickOpts keeps personalization cheap: one pruning iteration, one epoch.
func quickOpts() Options {
	return Options{
		Prune: pruner.Options{
			Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
		},
		TrainPerClass: 6,
		TestPerClass:  4,
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	env := sharedEnv()
	s, err := NewServer(env.build, env.base, env.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewServerRejectsInvalidPruneOptions(t *testing.T) {
	env := sharedEnv()
	opts := quickOpts()
	opts.Prune.Target = 1.5
	if _, err := NewServer(env.build, env.base, env.ds, opts); err == nil {
		t.Fatal("invalid prune target must surface as an error, not a panic")
	}
}

func TestCanonicalize(t *testing.T) {
	s := newTestServer(t, quickOpts())
	canon, key, err := s.Canonicalize([]int{4, 1, 4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if key != "1,2,4" {
		t.Fatalf("key %q, want 1,2,4", key)
	}
	if len(canon) != 3 || canon[0] != 1 || canon[1] != 2 || canon[2] != 4 {
		t.Fatalf("canon %v", canon)
	}
	if _, _, err := s.Canonicalize(nil); err == nil {
		t.Fatal("empty class set must fail")
	}
	if _, _, err := s.Canonicalize([]int{0, 6}); err == nil {
		t.Fatal("out-of-range class must fail")
	}
	if _, _, err := s.Canonicalize([]int{-1}); err == nil {
		t.Fatal("negative class must fail")
	}
}

func TestPersonalizeCachesEngines(t *testing.T) {
	s := newTestServer(t, quickOpts())
	p1, cached, err := s.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request cannot be a cache hit")
	}
	if p1.Engine() == nil || p1.Engine().CompressedLayers == 0 {
		t.Fatal("personalization did not compile a sparse engine")
	}
	if p1.Report.AchievedSparsity <= 0 {
		t.Fatalf("no sparsity achieved: %+v", p1.Report)
	}
	// Same set in a different order and with duplicates must hit the cache
	// and return the same engine.
	p2, cached, err := s.Personalize([]int{3, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || p2 != p1 {
		t.Fatal("reordered class set must hit the cached engine")
	}
	st := s.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.Personalizations != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 2
	s := newTestServer(t, opts)
	mustPersonalize := func(classes []int) *Personalization {
		p, _, err := s.Personalize(classes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mustPersonalize([]int{0, 1})
	mustPersonalize([]int{1, 2})
	// Touch A so {1,2} is the LRU victim when {2,3} arrives.
	if p, cached, _ := s.Personalize([]int{0, 1}); !cached || p != a {
		t.Fatal("expected cache hit on {0,1}")
	}
	mustPersonalize([]int{2, 3})
	st := s.Stats()
	if st.Evictions != 1 || st.CachedEngines != 2 {
		t.Fatalf("stats %+v", st)
	}
	// {0,1} survived; {1,2} was evicted and personalizes again.
	if _, cached, _ := s.Personalize([]int{0, 1}); !cached {
		t.Fatal("{0,1} should have survived eviction")
	}
	if _, cached, _ := s.Personalize([]int{1, 2}); cached {
		t.Fatal("{1,2} should have been evicted")
	}
}

func TestSingleflightDedup(t *testing.T) {
	s := newTestServer(t, quickOpts())
	const clients = 6
	var wg sync.WaitGroup
	ps := make([]*Personalization, clients)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			p, _, err := s.Personalize([]int{2, 4})
			if err != nil {
				t.Error(err)
				return
			}
			ps[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ps[i] != ps[0] {
			t.Fatal("concurrent identical requests must share one personalization")
		}
	}
	st := s.Stats()
	if st.Personalizations != 1 {
		t.Fatalf("identical in-flight requests pruned %d times, want 1 (stats %+v)", st.Personalizations, st)
	}
	if st.CacheHits+st.DedupJoins != clients-1 {
		t.Fatalf("requests neither joined nor hit: %+v", st)
	}
}

// TestConcurrentOverlappingClassSets is the -race hammer: many clients
// personalizing and predicting overlapping class sets at once.
func TestConcurrentOverlappingClassSets(t *testing.T) {
	s := newTestServer(t, quickOpts())
	sets := [][]int{{0, 1}, {1, 2}, {0, 1, 2}, {2, 0}}
	const clients = 8
	const rounds = 5
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				classes := sets[(c+r)%len(sets)]
				if r%2 == 0 {
					if _, _, err := s.Personalize(classes); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				preds, labels, _, err := s.PredictSamples(classes, 8)
				if err != nil {
					t.Error(err)
					return
				}
				if len(preds) != 8 || len(labels) != 8 {
					t.Errorf("batch sizes %d/%d, want 8/8", len(preds), len(labels))
					return
				}
				for _, p := range preds {
					if p < 0 || p >= 6 {
						t.Errorf("prediction %d outside class range", p)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("requests %d, want %d", st.Requests, clients*rounds)
	}
	if st.CacheHits+st.CacheMisses+st.DedupJoins != st.Requests {
		t.Fatalf("request accounting inconsistent: %+v", st)
	}
	if st.Personalizations != uint64(len(sets)) {
		t.Fatalf("personalizations %d, want %d (one per distinct set)", st.Personalizations, len(sets))
	}
	if st.CacheHits == 0 {
		t.Fatalf("repeated class sets produced no cache hits: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", st.InFlight)
	}
}

// TestPredictSamplesCoversEveryClass guards the round-robin selection: a
// batch smaller than classes×per must still include samples of every class
// in the set.
func TestPredictSamplesCoversEveryClass(t *testing.T) {
	s := newTestServer(t, quickOpts())
	_, labels, _, err := s.PredictSamples([]int{0, 2, 4, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 5 {
		t.Fatalf("labels %v, want 5", labels)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	for _, c := range []int{0, 2, 4, 5} {
		if !seen[c] {
			t.Fatalf("class %d missing from sampled batch (labels %v)", c, labels)
		}
	}
}

// TestRebuildAfterEvictionIsDeterministic checks an evicted engine rebuilds
// to the same predictions (splits and pruning are seeded by the class key).
func TestRebuildAfterEvictionIsDeterministic(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 1
	s := newTestServer(t, opts)
	first, _, _, err := s.PredictSamples([]int{1, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Personalize([]int{2, 5}); err != nil { // evicts {1,4}
		t.Fatal(err)
	}
	again, _, _, err := s.PredictSamples([]int{1, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("rebuilt engine diverged at sample %d: %d vs %d", i, first[i], again[i])
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("eviction did not happen; test is vacuous")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	wg.Add(12)
	for i := 0; i < 12; i++ {
		go func() {
			defer wg.Done()
			p.Do(func() {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				for j := 0; j < 1000; j++ {
					_ = j * j
				}
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("pool ran %d jobs at once, bound is 3", got)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Do(func() {})
	p.Close()
	p.Close()
}

// TestPoolCloseConcurrentWithSubmit races Close against a storm of Do
// calls: no job may be dropped and nothing may panic — submissions that
// lose the race run inline.
func TestPoolCloseConcurrentWithSubmit(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	var wg sync.WaitGroup
	const jobs = 64
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go func() {
			defer wg.Done()
			p.Do(func() { ran.Add(1) })
		}()
	}
	p.Close()
	wg.Wait()
	if got := ran.Load(); got != jobs {
		t.Fatalf("%d of %d jobs ran across the Close race", got, jobs)
	}
	// Post-close work still completes (inline).
	p.Do(func() { ran.Add(1) })
	if got := ran.Load(); got != jobs+1 {
		t.Fatalf("post-close work dropped: %d", got)
	}
}

package serve

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/inference"
	"repro/internal/pruner"
	"repro/internal/tensor"
)

// tierX returns a deterministic predict batch for a class set.
func tierX(s *Server, classes []int) *tensor.Tensor {
	return s.ds.MakeSplit("tier-probe", classes, 2).X
}

// TestTierRoundTripBitIdentical drives one tenant through every tier
// transition and asserts the promoted engine is the demoted one, bit for
// bit: identical logits at both precisions, identical structural
// fingerprint, identical quant signature on int8, and the stored
// accuracy/agreement carried over.
func TestTierRoundTripBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		prec inference.Precision
		// budget: huge keeps the warm tier intact (hot→warm→hot); tiny
		// trims every warm record immediately, forcing the cold tier into
		// the chain (hot→warm→cold→hot). Cold cases need a snapshot dir.
		budget int64
		dir    bool
	}{
		{"float32/warm", inference.Float32, 1 << 40, false},
		{"int8/warm", inference.Int8, 1 << 40, false},
		{"float32/cold", inference.Float32, 1, true},
		{"int8/cold", inference.Int8, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := quickOpts()
			opts.CacheSize = 1
			opts.Precision = tc.prec
			opts.MemoryBudgetBytes = tc.budget
			if tc.dir {
				opts.SnapshotDir = t.TempDir()
			}
			s := newTestServer(t, opts)

			a := []int{1, 3}
			x := tierX(s, a)
			p1, _, err := s.Personalize(a)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]float64(nil), p1.Engine().Logits(x).Data...)
			fp, qsig := p1.Engine().Fingerprint(), p1.Engine().QuantSignature()

			// A second tenant squeezes the first out of the one-engine hot
			// tier; rebalance runs synchronously before Personalize returns.
			if _, _, err := s.Personalize([]int{0, 2}); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Evictions != 1 || st.CachedEngines != 1 {
				t.Fatalf("eviction bookkeeping: %+v", st)
			}
			wantWarm := tc.budget > 1
			if wantWarm && (st.Demotions != 1 || st.WarmEntries != 1 || st.WarmBytes <= 0 || st.DemoteNanos == 0) {
				t.Fatalf("demotion bookkeeping: %+v", st)
			}
			if !wantWarm {
				if st.WarmEntries != 0 {
					t.Fatalf("tiny budget kept a warm record: %+v", st)
				}
				if !tc.dir {
					t.Fatal("bad case: cold chain without a snapshot dir")
				}
			}

			p2, cached, err := s.Personalize(a)
			if err != nil {
				t.Fatal(err)
			}
			if cached || p2 == p1 {
				t.Fatal("evicted tenant cannot be a cache hit")
			}
			st = s.Stats()
			if wantWarm {
				if st.WarmHits != 1 || st.Promotions != 1 || st.PromoteNanos == 0 || st.RestoreNanos != 0 {
					t.Fatalf("expected a warm promotion: %+v", st)
				}
			} else if st.RestoreHits != 1 || st.RestoreNanos == 0 || st.PromoteNanos != 0 {
				t.Fatalf("expected a cold restore: %+v", st)
			}
			if st.PromoteErrors != 0 {
				t.Fatalf("promote errors: %+v", st)
			}

			got := p2.Engine().Logits(x)
			for i, v := range want {
				if got.Data[i] != v {
					t.Fatalf("logit %d changed across the tier round-trip: %v vs %v", i, got.Data[i], v)
				}
			}
			if p2.Engine().Fingerprint() != fp {
				t.Fatal("structural fingerprint changed across the round-trip")
			}
			if p2.Engine().QuantSignature() != qsig {
				t.Fatal("quant signature changed across the round-trip")
			}
			if p2.Accuracy != p1.Accuracy || p2.Agreement != p1.Agreement {
				t.Fatalf("stored metrics changed: %v/%v vs %v/%v", p2.Accuracy, p2.Agreement, p1.Accuracy, p1.Agreement)
			}
		})
	}
}

// oracle returns the engine the tenant for classes must be at prec, from a
// path that shares nothing with a server: a private clone of oracleEnv's
// base, pruned with prune on the sorted class set's serve-train split and
// compiled straight from that clone by inference.NewWithOptions — no delta,
// tier or snapshot. A CRISP tenant is a function of (universal model, class
// set), so this is what a server must serve, however the tenant reached its
// hot tier.
func oracle(t *testing.T, prune pruner.Options, trainPerClass int, classes []int, prec inference.Precision) *inference.Engine {
	t.Helper()
	env := oracleEnv()
	canon := slices.Compact(slices.Sorted(slices.Values(classes)))
	key := make([]string, len(canon))
	for i, c := range canon {
		key[i] = strconv.Itoa(c)
	}
	clone := env.build()
	env.base.CloneWeightsTo(clone)
	pruner.NewCRISP(prune).Prune(clone, env.ds.MakeSplit("serve-train/"+strings.Join(key, ","), canon, trainPerClass))
	eng, err := inference.NewWithOptions(clone, prune.BlockSize, prune.NM, inference.CompileOptions{Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTierTransitionsMatchTheOracle holds a Float32 tenant to the oracle,
// not to its earlier self, after each way it can come back: personalize →
// demote (its delta derived from the engine) → warm promotion, and Flush →
// cold restore on a fresh server over the same directory. The served engine
// must have the oracle's Fingerprint and its logits bit for bit, so a tenant
// whose delta went wrong on the way down is caught even when the server
// would agree with itself.
func TestTierTransitionsMatchTheOracle(t *testing.T) {
	opts, _ := snapshotOpts(t)
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	s := newTestServer(t, opts)
	a := []int{3, 1}
	want := oracle(t, s.opts.Prune, opts.TrainPerClass, a, inference.Float32)
	x := oracleEnv().ds.MakeSplit("tier-probe", []int{1, 3}, 2).X
	check := func(path string, p *Personalization) {
		t.Helper()
		if fp := p.Engine().Fingerprint(); fp != want.Fingerprint() {
			t.Fatalf("%s: engine %016x, the oracle's is %016x", path, fp, want.Fingerprint())
		}
		if !slices.Equal(p.Engine().Logits(x).Data, want.Logits(x).Data) {
			t.Fatalf("%s: logits differ from the oracle's", path)
		}
	}

	p, _, err := s.Personalize(a)
	if err != nil {
		t.Fatal(err)
	}
	check("pruned", p)
	if _, _, err := s.Personalize([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if p, _, err = s.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Demotions < 1 || st.Promotions != 1 || st.Personalizations != 2 {
		t.Fatalf("expected a demotion and a warm promotion: %+v", st)
	}
	check("demoted and promoted", p)

	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := newTestServer(t, opts)
	if p, _, err = fresh.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("expected a cold restore: %+v", st)
	}
	check("flushed and cold-restored", p)
}

// TestInt8TierTransitionsMatchTheOracle is the Int8 half: one tenant, held
// to the oracle's own Int8 engine — its QuantSignature and its top-1 — after
// personalize, after Flush (the store acknowledges the record and the hot
// tenant drops its delta), after a demotion that reads the record back and
// the warm promotion of what it read, and after a cold restore on a fresh
// server over the same directory. A durable tenant, however it came back,
// holds no delta: it is charged its engine and overhead alone.
func TestInt8TierTransitionsMatchTheOracle(t *testing.T) {
	opts, _ := snapshotOpts(t)
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	opts.Precision = inference.Int8
	s := newTestServer(t, opts)
	a := []int{3, 1}
	want := oracle(t, s.opts.Prune, opts.TrainPerClass, a, inference.Int8)
	x := oracleEnv().ds.MakeSplit("tier-probe", []int{1, 3}, 2).X
	check := func(path string, p *Personalization) {
		t.Helper()
		if sig := p.Engine().QuantSignature(); sig != want.QuantSignature() {
			t.Fatalf("%s: quant signature %016x, the oracle's is %016x", path, sig, want.QuantSignature())
		}
		if !slices.Equal(p.Engine().Predict(x), want.Predict(x)) {
			t.Fatalf("%s: top-1 differs from the oracle's", path)
		}
	}

	p, _, err := s.Personalize(a)
	if err != nil {
		t.Fatal(err)
	}
	check("pruned", p)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkHeld(t, "flushed", s, p, false)
	if st := s.Stats(); st.HotBytes != p.size {
		t.Fatalf("HotBytes %d after the drop, the one tenant's size is %d", st.HotBytes, p.size)
	}
	check("flushed", p)

	if _, _, err := s.Personalize([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, parked := s.warm[p.Key]
	s.mu.Unlock()
	if st := s.Stats(); !parked || st.Demotions != 1 || st.SnapshotErrors != 0 || st.SnapshotsQuarantined != 0 {
		t.Fatalf("the delta-less tenant was not demoted from its read-back record: %+v", st)
	}
	if p, _, err = s.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Promotions != 1 || st.PromoteErrors != 0 || st.Personalizations != 2 {
		t.Fatalf("expected a warm promotion: %+v", st)
	}
	check("demoted from its record and promoted", p)
	checkHeld(t, "promoted", s, p, false)

	fresh := newTestServer(t, opts)
	if p, _, err = fresh.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("expected a cold restore: %+v", st)
	}
	check("cold-restored", p)
	checkHeld(t, "cold-restored", fresh, p, false)
}

// checkHeld holds whether tenant p of s holds a delta to want, and its
// charge to its engine, the delta it holds and the overhead.
func checkHeld(t *testing.T, what string, s *Server, p *Personalization, want bool) {
	t.Helper()
	s.mu.Lock()
	delta, size := p.delta, p.size
	s.mu.Unlock()
	if (delta != nil) != want {
		t.Fatalf("%s: tenant {%s} holds a delta: %v, want %v", what, p.Key, delta != nil, want)
	}
	if wantSize := p.engine.MemoryFootprint() + int64(len(delta)) + personalizationOverheadBytes; size != wantSize {
		t.Fatalf("%s: tenant {%s} charged %d, want engine + held delta + overhead = %d", what, p.Key, size, wantSize)
	}
}

// checkHotCharge holds the hot tier's byte accounting to its tenants, under
// s.mu: the charge is the sum of the resident tenants' sizes and never
// negative. It reports whether the books balanced.
func checkHotCharge(t *testing.T, s *Server) bool {
	t.Helper()
	s.mu.Lock()
	var sum int64
	for _, el := range s.entries {
		sum += el.Value.(*Personalization).size
	}
	hot := s.hotBytes
	s.mu.Unlock()
	if hot < 0 || hot != sum {
		t.Errorf("hot tier charged %d, its resident tenants' sizes sum to %d", hot, sum)
		return false
	}
	return true
}

// TestTierStorm mixes Predict traffic, demotions, promotions and cold
// restores across more tenants than the hot tier holds — the -race guard
// for the tier transitions (eviction releases racing in-flight predicts,
// demote racing re-personalization).
func TestTierStorm(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 2
	opts.MemoryBudgetBytes = 1 << 40
	opts.SnapshotDir = t.TempDir()
	opts.MaxBatch = 4
	s := newTestServer(t, opts)

	sets := [][]int{{0, 1}, {2, 3}, {4, 5}, {0, 5}, {1, 4}}
	xs := make([]*tensor.Tensor, len(sets))
	for i, set := range sets {
		xs[i] = tierX(s, set)
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % len(sets)
				if _, err := s.Predict(sets[k], xs[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.CachedEngines > opts.CacheSize {
		t.Fatalf("hot tier overflowed: %+v", st)
	}
	if st.Evictions == 0 || st.Demotions == 0 {
		t.Fatalf("storm never exercised demotion: %+v", st)
	}
	if st.PromoteErrors != 0 {
		t.Fatalf("promote errors under load: %+v", st)
	}
}

// TestTierStormInt8Accounting is TestTierStorm at Int8 over a store, with
// Flush running beside the traffic: write-behind snapshots and Flush drop
// held deltas while predicts miss, demote (reading a durable tenant's record
// back) and promote. Whenever the lock is free the hot tier's charge is the
// sum of its resident tenants' sizes — a drop racing an eviction or a lost
// insert would un-charge a tenant twice — and never negative; at quiescence
// every hot tenant is durable and holds no delta.
func TestTierStormInt8Accounting(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 2
	opts.MemoryBudgetBytes = 1 << 40
	opts.SnapshotDir = t.TempDir()
	opts.MaxBatch = 4
	opts.Precision = inference.Int8
	s := newTestServer(t, opts)

	sets := [][]int{{0, 1}, {2, 3}, {4, 5}, {0, 5}, {1, 4}}
	xs := make([]*tensor.Tensor, len(sets))
	for i, set := range sets {
		xs[i] = tierX(s, set)
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	stop := make(chan struct{})
	flusher := make(chan struct{})
	go func() {
		defer close(flusher)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if !checkHotCharge(t, s) {
				return
			}
			if _, err := s.Flush(); err != nil {
				t.Error(err)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % len(sets)
				if _, err := s.Predict(sets[k], xs[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flusher

	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkHotCharge(t, s)
	s.mu.Lock()
	for _, el := range s.entries {
		if p := el.Value.(*Personalization); p.delta != nil {
			t.Errorf("hot tenant {%s} still holds its delta after Flush", p.Key)
		}
	}
	s.mu.Unlock()
	st := s.Stats()
	if st.CachedEngines > opts.CacheSize || st.Evictions == 0 || st.Demotions == 0 {
		t.Fatalf("storm never exercised demotion: %+v", st)
	}
	if st.PromoteErrors != 0 || st.SnapshotErrors != 0 || st.SnapshotsQuarantined != 0 {
		t.Fatalf("tier errors under load: %+v", st)
	}
}

// TestTierCycleDoesNotLeak cycles two tenants through a one-engine hot
// tier — every round promotes one and demotes the other — and asserts
// nothing accretes: tier byte gauges do not drift, no predict queue is
// stranded, and the heap stays bounded.
func TestTierCycleDoesNotLeak(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 40
	s := newTestServer(t, opts)

	keys := [][]int{{1, 3}, {0, 2}}
	for _, k := range keys { // initial prunes, outside the measured cycle
		if _, _, err := s.Personalize(k); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Stats()
	if base.Demotions != 1 || base.WarmEntries != 1 {
		t.Fatalf("fixture did not tier: %+v", base)
	}

	rounds := 10_000
	if testing.Short() {
		rounds = 300
	}
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		if _, _, err := s.Personalize(keys[i%2]); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Promotions != base.Promotions+uint64(rounds) {
		t.Fatalf("rounds fell off the warm path: %d promotions for %d rounds (%+v)", st.Promotions-base.Promotions, rounds, st)
	}
	if st.HotBytes != base.HotBytes || st.WarmBytes != base.WarmBytes {
		t.Fatalf("tier gauges drifted: hot %d→%d warm %d→%d",
			base.HotBytes, st.HotBytes, base.WarmBytes, st.WarmBytes)
	}
	if st.CachedEngines != 1 || st.WarmEntries != 1 || st.QueueDepth != 0 {
		t.Fatalf("residency drifted: %+v", st)
	}
	var ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	// Soft heap bound: cycling must not accrete live memory. Allow slack
	// for allocator noise; a real leak of 10k engine cycles would be far
	// larger than 32 MiB.
	if growth := int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc); growth > 32<<20 {
		t.Fatalf("heap grew %d bytes across %d tier cycles", growth, rounds)
	}
}

// TestTieredDensityAtLeast3x is the acceptance gate in miniature: resident
// tenants per byte under a budget must beat a full-copy cache — one that
// keeps a model clone (inference.ModelBytes) beside every compiled engine —
// by >= 3x, with every tenant still resident (hot or warm, none dropped).
// The budget comes from the measured sizes: a hot tier between two and three
// hot tenants, and room beside it for the other four as warm records. (It
// was seven tenths of the all-hot bytes with three fifths of that hot, which
// held while a warm record was under 0.55 of a hot tenant — 0.40 while a hot
// Float32 tenant carried its delta beside its engine. Without it a warm
// record is 0.83 of a hot tenant — 117 703 against 141 084..141 404 bytes
// here — and four no longer fit; density went from 7.12× with 2 hot + 4 warm
// in 986 812 bytes to 9.34× in 752 468.)
func TestTieredDensityAtLeast3x(t *testing.T) {
	env := sharedEnv()
	sets := [][]int{{0, 1}, {2, 3}, {4, 5}, {0, 5}, {1, 4}, {2, 5}}

	full := newTestServer(t, quickOpts()) // budget 0: every tenant hot
	var fullBytes, hotMin, hotMax, warmMax int64
	for _, set := range sets {
		p, _, err := full.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := full.deltaOf(p)
		if err != nil {
			t.Fatal(err)
		}
		clone := env.build()
		if err := checkpoint.ApplyModelDelta(delta, env.base, clone); err != nil {
			t.Fatal(err)
		}
		fullBytes += inference.ModelBytes(clone) + p.engine.MemoryFootprint()
		if hotMin == 0 || p.size < hotMin {
			hotMin = p.size
		}
		hotMax = max(hotMax, p.size)
		warmMax = max(warmMax, warmEntryBytes(&warmEntry{key: p.Key, classes: p.Classes, delta: delta}))
	}
	hotBytes := full.Stats().HotBytes
	if hotBytes <= 0 || fullBytes <= hotBytes {
		t.Fatalf("all-hot residency %d, full-copy residency %d", hotBytes, fullBytes)
	}
	hotBudget := (2*hotMax + 3*hotMin) / 2 // two hot tenants fit, three do not
	if hotBudget <= 2*hotMax || hotBudget >= 3*hotMin {
		t.Fatalf("hot tenants %d..%d bytes: no hot tier holds exactly two", hotMin, hotMax)
	}

	opts := quickOpts()
	opts.MemoryBudgetBytes = hotBudget + int64(len(sets)-2)*warmMax
	opts.HotFraction = float64(hotBudget) / float64(opts.MemoryBudgetBytes)
	tiered := newTestServer(t, opts)
	for _, set := range sets {
		if _, _, err := tiered.Personalize(set); err != nil {
			t.Fatal(err)
		}
	}
	st := tiered.Stats()
	if st.Demotions == 0 {
		t.Fatalf("budget forced no demotion: %+v", st)
	}
	if st.CachedEngines+st.WarmEntries != len(sets) || st.WarmEvictions != 0 {
		t.Fatalf("tenants fell out of residency: %+v", st)
	}
	resident := st.HotBytes + st.WarmBytes
	if resident <= 0 || resident > opts.MemoryBudgetBytes {
		t.Fatalf("budget not honored: resident %d of %d", resident, opts.MemoryBudgetBytes)
	}
	ratio := float64(fullBytes) / float64(resident)
	if ratio < 3 {
		t.Fatalf("density %.2fx, want >= 3x (full %d bytes, tiered %d bytes for %d tenants)",
			ratio, fullBytes, resident, len(sets))
	}
	t.Logf("density %.2fx: %d tenants (%d hot) in %d bytes vs %d full-copy, %d all hot; hot tenant %d..%d bytes, warm record <= %d",
		ratio, len(sets), st.CachedEngines, resident, fullBytes, hotBytes, hotMin, hotMax, warmMax)
}

package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// The fixture is the deployed system, not the workload: one synthetic
// dataset and one pre-trained universal model per family, the same on every
// seed. Only the trace (tenants, requests) follows --seed, so user_acc and
// the byte counts move with the code, not with the draw of a base model.
// Shapes match BenchmarkInference_*: width-2 models on 3×8×8 inputs.
const (
	fixtureSeed      = 20240607
	modelWidth       = 2
	pretrainEpochs   = 2
	pretrainPerClass = 8
	trainPerClass    = 8
	testPerClass     = 8

	// tenant_churn's byte budget, sized at the seed commit for 8 hot engines
	// (533 KB each) and about 48 warm delta records (24 KB each) of
	// transformer-s: most of the 64 tenants stay resident and the coldest few
	// live on disk. CacheSize bounds the hot count; the budget bounds hot +
	// warm bytes, so a change that shrinks tenant state keeps more tenants
	// warm and restores fewer from disk. With only ~24 warm the single
	// predict lane of a 2-worker pool ran near 60 % busy on cold restores and
	// latency_p99_ms swung 2x between identical runs; at ~48 the p99 sits in
	// the body of the cold-restore times instead of their queueing tail.
	churnHot    = 8
	churnBudget = churnHot*540_000 + 48*24_500
)

var dataCfg = data.Config{Name: "bench", NumClasses: numClasses, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: fixtureSeed}

var pruneOpts = pruner.Options{
	Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
	Iterations: 1, FinetuneEpochs: 1, BatchSize: 16,
}

// system is the program under test: the in-process server or the sharded
// fleet behind the router.
type system struct {
	w       workload
	ds      *data.Dataset
	build   func() *nn.Classifier
	base    *nn.Classifier
	servers []*serve.Server             // the shards, or the one in-process server
	mainDir string                      // snapshot store shared by servers
	tierDir string                      // the traced run's tier server keeps its own
	indexes map[string]checkpoint.Index // snapshot indexes by directory, read once the stores are flushed

	// The HTTP side exists on a sharded workload only.
	muxes     []http.Handler
	shardHTTP []*httptest.Server
	router    *cluster.Router
	front     *httptest.Server
	transport *http.Transport // the router's proxy connections
}

func (sys *system) serverOptions(dir string) serve.Options {
	return serve.Options{
		Prune:         pruneOpts,
		TrainPerClass: trainPerClass,
		TestPerClass:  testPerClass,
		MaxBatch:      16,
		Linger:        sys.w.linger,
		Precision:     sys.w.precision,
		SnapshotDir:   dir,
	}
}

// setUp builds the whole system under dir: dataset, universal pre-training,
// servers and, on a sharded workload, shard listeners, router and front
// listener. Its wall time is setup_s.
func setUp(w workload, dir string) (*system, error) {
	sys := &system{
		w: w, ds: data.New(dataCfg), indexes: map[string]checkpoint.Index{},
		mainDir: filepath.Join(dir, "main"), tierDir: filepath.Join(dir, "tier"),
	}
	sys.build = func() *nn.Classifier {
		return models.Build(w.family, rand.New(rand.NewSource(fixtureSeed+1)), numClasses, modelWidth)
	}
	sys.base = sys.build()
	all := make([]int, numClasses)
	for i := range all {
		all[i] = i
	}
	pruner.Finetune(sys.base, sys.ds.MakeSplit("pretrain", all, pretrainPerClass), pretrainEpochs, 16,
		nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(fixtureSeed+2)))

	opts := sys.serverOptions(sys.mainDir)
	if w.churn {
		opts.CacheSize = churnHot
		opts.MemoryBudgetBytes = churnBudget
		opts.HotFraction = 1 // the count bounds the hot tier; the bytes left over hold warm records
	}
	for i := 0; i < max(w.shards, 1); i++ {
		srv, err := serve.NewServer(sys.build, sys.base, sys.ds, opts)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.servers = append(sys.servers, srv)
	}
	if w.shards == 0 {
		return sys, nil
	}

	// Keep-alive connections router→shard: the default two idle connections
	// per host would re-dial under GOMAXPROCS > 2 clients and time the TCP
	// stack instead of the proxy.
	sys.transport = &http.Transport{MaxIdleConnsPerHost: 16}
	sys.router = cluster.NewRouter(cluster.Options{ProbeInterval: time.Second, Client: &http.Client{Transport: sys.transport}})
	for i, srv := range sys.servers {
		id := fmt.Sprintf("s%d", i+1)
		mux := api.NewMux(srv, sys.ds, api.Config{ShardID: id})
		hs := httptest.NewServer(mux)
		sys.muxes = append(sys.muxes, mux)
		sys.shardHTTP = append(sys.shardHTTP, hs)
		sys.router.AddShard(id, hs.Listener.Addr().String())
	}
	sys.router.Start()
	sys.front = httptest.NewServer(sys.router.Mux())
	return sys, nil
}

// close stops every listener, prober and worker pool the system started.
func (sys *system) close() {
	if sys.front != nil {
		sys.front.Close()
	}
	if sys.router != nil {
		sys.router.Close()
	}
	for _, hs := range sys.shardHTTP {
		hs.Close()
	}
	if sys.transport != nil {
		sys.transport.CloseIdleConnections()
	}
	for _, srv := range sys.servers {
		srv.Close()
	}
}

// tierServer builds the budgeted server the traced run times promotions on
// when the workload's own server keeps every tenant hot: one hot slot and
// room for every other tenant as a warm record, so each round-robin touch is
// exactly one warm promotion.
func (sys *system) tierServer() (*serve.Server, error) {
	opts := sys.serverOptions(sys.tierDir)
	opts.CacheSize = 1
	opts.MemoryBudgetBytes = 1 << 30
	return serve.NewServer(sys.build, sys.base, sys.ds, opts)
}

// shardOf returns the server that owns a tenant key.
func (sys *system) shardOf(key string) (int, error) {
	if sys.router == nil || len(sys.servers) == 1 {
		return 0, nil
	}
	id, ok := sys.router.LookupShard(key)
	if !ok {
		return 0, fmt.Errorf("no shard on the ring for {%s}", key)
	}
	var i int
	if _, err := fmt.Sscanf(id, "s%d", &i); err != nil || i < 1 || i > len(sys.servers) {
		return 0, fmt.Errorf("unexpected shard id %q", id)
	}
	return i - 1, nil
}

// loadReference returns the masked-dense classifier a tenant was pruned to,
// read back from the tenant's snapshot record: the correctness oracle for
// float32 predictions. The store must have been flushed.
func (sys *system) loadReference(dir, key string) (*nn.Classifier, error) {
	idx, ok := sys.indexes[dir]
	if !ok {
		var err error
		if idx, err = checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile)); err != nil {
			return nil, err
		}
		sys.indexes[dir] = idx
	}
	file, ok := idx[key]
	if !ok {
		return nil, fmt.Errorf("no snapshot record for {%s} in %s", key, dir)
	}
	f, err := os.Open(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	clf := sys.build()
	if _, err := checkpoint.LoadPersonalization(bufio.NewReader(f), clf); err != nil {
		return nil, fmt.Errorf("loading reference for {%s}: %w", key, err)
	}
	return clf, nil
}

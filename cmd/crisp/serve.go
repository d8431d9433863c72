package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only via -pprof-addr)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// runServe exposes the CRISP personalization service over HTTP: one
// pretrained universal model, per-user pruned engines built on a bounded
// worker pool, cached with LRU eviction and in-flight deduplication (see
// internal/serve for the cache semantics, internal/api for the endpoint
// surface).
//
// Endpoints (internal/api):
//
//	POST /personalize {"classes":[3,17,42]}
//	POST /predict     {"classes":[3,17,42], "samples":16}
//	POST /predict     {"classes":[3,17,42], "inputs":[[...C*H*W floats...], ...]}
//	POST /snapshot    (flush every cached engine to the snapshot dir)
//	GET  /stats
//	GET  /metrics     (Prometheus text exposition of the /stats counters)
//	GET  /healthz     (liveness + load; probed by crisp router)
//	POST /drain       (shard drain: flush + handoff manifest)
//	POST /handoff     (adopt a tenant from the shared snapshot store)
//
// With -snapshot-dir the server is durable: completed personalizations are
// snapshotted write-behind, evicted engines keep their disk copy, and a
// restart restores every engine from disk instead of re-pruning. Pointing
// several shards at one shared directory makes it the cluster's handoff
// channel (see crisp router).
//
// With -memory-budget (e.g. -memory-budget 512M) the engine cache becomes a
// three-tier hot/warm/cold hierarchy: hot compiled engines up to
// -hot-fraction of the budget, evicted engines demoted to compact warm
// delta records over the universal weights, and warm records
// squeezed past the budget falling back to disk snapshots. Promotion back
// to hot is bit-identical (QuantSignature-identical on int8); /metrics
// exposes the tier gauges and flow counters (crisp_serve_hot_bytes,
// crisp_serve_warm_bytes, crisp_serve_demotions_total, ...).
//
// Concurrent /predict requests for the same class set coalesce into shared
// engine invocations (dynamic batching; -max-batch, -linger, -max-queue).
// When a personalization's predict queue is full the server sheds load
// with 429 Too Many Requests instead of queueing without bound.
//
// Tenants carry a QoS class (gold, standard or batch; set via the
// /personalize "qos" field) that shapes scheduling: per-class latency
// budgets flush batches before a rider's deadline, and per-tenant
// class-weighted token buckets shed over-quota tenants (429) once the
// server is under queue pressure — so a single abusive tenant is shed
// before admission control has to reject everyone. Tune with -qos-gold /
// -qos-standard / -qos-batch ("budget=10ms,rps=400,burst=100"),
// -shed-watermark and -shed-global-queue; -qos-off reverts to plain FIFO
// batching (the baseline crisp load -fifo compares against).
//
// With -precision int8 every personalized engine runs from int8 quantized
// plans (the CRISP-STC deployment precision): int8 weight codes, int32
// accumulation, dequantize-on-store. Each personalization measures its
// top-1 agreement against the full-precision engine once, on its held-out
// split; /personalize reports it per tenant and /stats and /metrics
// aggregate it fleet-wide (crisp_serve_top1_agreement).
//
// With -pprof-addr the server additionally exposes net/http/pprof on a
// separate listener (off by default; bind it to localhost), so CPU and heap
// profiles of the predict hot path can be captured in-situ.
//
// Shutdown is graceful: SIGINT/SIGTERM stops the listener, drains in-flight
// handlers (bounded by -shutdown-timeout), kicks queued predict batches out
// so no rider is stranded, flushes every pending write-behind snapshot to
// disk, and only then exits. Killing a shard with -snapshot-dir set
// therefore never loses a completed personalization — the invariant the
// cluster's drain/handoff machinery is built on.
func runServe(args []string) error {
	fs := flag.NewFlagSet("crisp serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		family     = fs.String("model", "resnet-s", "model family: resnet-s, vgg-s, mobilenet-s, transformer-s")
		width      = fs.Int("width", 2, "model width multiplier")
		numClasses = fs.Int("num-classes", 20, "number of classes in the universal model")
		pretrain   = fs.Int("pretrain-epochs", 4, "universal pre-training epochs at startup")
		perClass   = fs.Int("pretrain-per-class", 12, "pre-training samples per class")
		target     = fs.Float64("target", 0.85, "global sparsity target κ per personalization")
		workers    = fs.Int("workers", 0, "personalization worker bound (0 = GOMAXPROCS)")
		cacheSize  = fs.Int("cache", 64, "maximum cached engines (LRU beyond)")
		memBudget  = fs.String("memory-budget", "", "resident tenant-state byte budget enabling the hot/warm/cold tiered cache, e.g. 512M or 2G (empty: single-level LRU)")
		hotFrac    = fs.Float64("hot-fraction", 0.75, "share of -memory-budget reserved for hot compiled engines, in (0, 1]; the rest holds warm delta records")
		snapDir    = fs.String("snapshot-dir", "", "durable personalization store directory (empty: memory-only); shards sharing one directory can hand tenants off through it")
		maxBatch   = fs.Int("max-batch", 16, "coalesce concurrent predicts up to this many samples per engine call (1 disables batching)")
		linger     = fs.Duration("linger", 2*time.Millisecond, "max time a predict waits for batch mates before flushing")
		maxQueue   = fs.Int("max-queue", 256, "per-personalization predict queue bound in samples (full queue replies 429)")
		precision  = fs.String("precision", "float32", "engine precision: float32 (exact) or int8 (quantized plans; ~int8 tensor-core deployment)")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty: disabled)")
		shardID    = fs.String("shard-id", "", "shard identity reported on /healthz and in drain manifests (empty: standalone)")
		shutdownTO = fs.Duration("shutdown-timeout", 30*time.Second, "max time to wait for in-flight requests on SIGINT/SIGTERM before forcing the listener closed")
		seed       = fs.Int64("seed", 1, "random seed")

		qosOff      = fs.Bool("qos-off", false, "disable QoS load shaping (no per-tenant quotas or deadline flushes; the FIFO baseline)")
		qosGold     = fs.String("qos-gold", "", "gold-class policy overrides, e.g. budget=10ms,rps=400,burst=100 (empty: defaults)")
		qosStandard = fs.String("qos-standard", "", "standard-class policy overrides (empty: defaults)")
		qosBatch    = fs.String("qos-batch", "", "batch-class policy overrides (empty: defaults)")
		shedWM      = fs.Float64("shed-watermark", 0, "fraction of -shed-global-queue at which over-quota tenants shed (0: default 0.5)")
		shedGlobal  = fs.Int("shed-global-queue", 0, "server-wide queued-sample reference for the shed watermark (0: 4 x max-queue)")
	)
	fs.Parse(args)

	f, err := parseFamily(*family)
	if err != nil {
		return err
	}
	prec, err := parsePrecision(*precision)
	if err != nil {
		return fmt.Errorf("-precision: %w", err)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return err
	}
	tiers, err := tierMode(budget, *hotFrac)
	if err != nil {
		return err
	}

	qos := serve.QoSOptions{
		Disabled:      *qosOff,
		ShedWatermark: *shedWM,
		GlobalQueue:   *shedGlobal,
	}
	for _, c := range []struct {
		class serve.QoSClass
		spec  string
		dst   *serve.QoSPolicy
	}{
		{serve.QoSGold, *qosGold, &qos.Gold},
		{serve.QoSStandard, *qosStandard, &qos.Standard},
		{serve.QoSBatch, *qosBatch, &qos.Batch},
	} {
		pol, err := serve.ParseQoSPolicy(serve.DefaultQoSPolicy(c.class), c.spec)
		if err != nil {
			return fmt.Errorf("-qos-%s: %v", c.class, err)
		}
		*c.dst = pol
	}

	fl, err := newFleet("serve", f, *numClasses, *width, *seed, *pretrain, *perClass, *target, 2)
	if err != nil {
		return err
	}
	s, err := serve.NewServer(fl.build, fl.base, fl.ds, serve.Options{
		Workers:           *workers,
		CacheSize:         *cacheSize,
		Prune:             fl.prune,
		SnapshotDir:       *snapDir,
		MaxBatch:          *maxBatch,
		Linger:            *linger,
		MaxQueue:          *maxQueue,
		Precision:         prec,
		MemoryBudgetBytes: budget,
		HotFraction:       *hotFrac,
		QoS:               qos,
	})
	if err != nil {
		return err
	}

	if *snapDir != "" {
		n, err := s.Restore()
		if err != nil {
			return err
		}
		log.Printf("restored %d personalization(s) from %s (%d bad record(s) skipped)", n, *snapDir, s.Stats().RestoreErrors)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	shard := "standalone"
	if *shardID != "" {
		shard = "shard " + *shardID
	}
	qosMode := "qos on"
	if *qosOff {
		qosMode = "qos off (FIFO)"
	}
	log.Printf("serving on %s (%s, %d workers, cache %d, %s, max-batch %d, linger %v, max-queue %d, precision %s, %s)",
		ln.Addr(), shard, s.Stats().Workers, *cacheSize, tiers, *maxBatch, *linger, *maxQueue, prec, qosMode)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	mux := api.NewMux(s, fl.ds, api.Config{ShardID: *shardID})
	if err := serveShard(ln, mux, *pprofAddr, s, *snapDir != "", sigc, *shutdownTO); err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}

// serveShard serves mux on ln through serveHTTP and then tears the shard
// down losslessly, in dependency order:
//
//  1. http.Server.Shutdown stops accepting and drains in-flight handlers
//     (bounded by timeout), so no request is cut off mid-response.
//  2. Server.DrainBatches kicks any predict batch still lingering for
//     batch mates, so queued riders are answered instead of stranded.
//  3. Server.Flush synchronously writes every personalization the
//     write-behind path has not landed yet — nothing durable is lost.
//  4. Server.Close drains the worker pool and the remaining pending
//     snapshot registrations.
//
// The predecessor of this path was log.Fatal(http.ListenAndServe(...)):
// a SIGTERM killed the process between a completed personalization and its
// write-behind snapshot, silently dropping records — the bug that made
// shard draining impossible to build. The pprof listener carries the same
// timeouts as the API's and is shut down through the same path instead of
// dying with a spurious error log.
func serveShard(ln net.Listener, mux http.Handler, pprofAddr string, s *serve.Server, hasStore bool, sigc <-chan os.Signal, timeout time.Duration) error {
	var pprofSrv *http.Server
	if pprofAddr != "" {
		// The profiling endpoint is opt-in and on its own listener (bind it
		// to localhost), so hot-path profiles can be captured in-situ
		// without exposing /debug/pprof next to the public API. The pprof
		// import registers on DefaultServeMux; the API mux is separate, so
		// the main address never serves profiles.
		pprofSrv = httpServer(http.DefaultServeMux)
		pprofSrv.Addr = pprofAddr
		go func() {
			log.Printf("pprof on %s (go tool pprof http://%s/debug/pprof/profile)", pprofAddr, pprofAddr)
			// A failed debug listener must not take live traffic down with
			// it: log and keep serving the API. ErrServerClosed is the
			// normal shutdown path, not an error worth logging.
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener exited: %v", err)
			}
		}()
	}
	return serveHTTP(ln, mux, sigc, timeout, func(ctx context.Context) {
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(ctx); err != nil {
				log.Printf("shutdown: stopping pprof listener: %v", err)
			}
		}
		s.DrainBatches()
		if hasStore {
			if n, err := s.Flush(); err != nil {
				log.Printf("shutdown: flushing snapshots: %v", err)
			} else if n > 0 {
				log.Printf("shutdown: flushed %d pending snapshot(s)", n)
			}
		}
		s.Close()
	})
}

// tierMode describes the engine cache the server runs for a -memory-budget
// of budget bytes and a -hot-fraction of hotFrac: the single-level LRU
// without a budget (hotFrac unused), else the tiered cache and the hot share
// it reserves. With a budget, a share outside (0, 1] is an error rather than
// a share the server would replace.
func tierMode(budget int64, hotFrac float64) (string, error) {
	if budget == 0 {
		return "single-level LRU", nil
	}
	if !(hotFrac > 0 && hotFrac <= 1) {
		return "", fmt.Errorf("-hot-fraction %v outside (0, 1]", hotFrac)
	}
	return fmt.Sprintf("tiered, budget %d bytes (hot %.0f%%)", budget, hotFrac*100), nil
}

// parseBytes parses a human byte size: a plain integer, or one with a K/M/G
// binary suffix (case-insensitive, optional trailing B/iB). Empty means 0
// (tiering disabled).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	up := strings.ToUpper(s)
	up = strings.TrimSuffix(strings.TrimSuffix(up, "IB"), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(up, "K"):
		mult, up = 1<<10, strings.TrimSuffix(up, "K")
	case strings.HasSuffix(up, "M"):
		mult, up = 1<<20, strings.TrimSuffix(up, "M")
	case strings.HasSuffix(up, "G"):
		mult, up = 1<<30, strings.TrimSuffix(up, "G")
	case strings.HasSuffix(up, "T"):
		mult, up = 1<<40, strings.TrimSuffix(up, "T")
	}
	n, err := strconv.ParseInt(up, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1073741824, 512M, 2G)", s)
	}
	return n * mult, nil
}

// runRouter fronts a set of crisp serve shards with a consistent-hash
// ring: it places tenants by class-set key, proxies /personalize and
// /predict to the owning shard, health-checks members, fails predicts over
// when a shard dies, and orchestrates graceful drains (POST /drain
// {"shard":"id"}) so a shard can leave without losing a tenant. See
// internal/cluster for the design. Shards are named by -shards and must
// share one snapshot directory: the store is the handoff channel.
//
// Like crisp serve, the router exits gracefully: SIGINT/SIGTERM stops the
// listener, lets in-flight proxies finish, and shuts the prober down.
func runRouter(args []string) error {
	fs := flag.NewFlagSet("crisp router", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	shards := fs.String("shards", "", "comma-separated shard list, id=host:port each")
	vnodes := fs.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
	probeInterval := fs.Duration("probe-interval", time.Second, "health probe period")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive probe failures before a shard leaves the ring")
	retries := fs.Int("predict-retries", 2, "retries for idempotent predicts after a shard failure")
	shutdownTO := fs.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown deadline")
	fs.Parse(args)

	members, err := parseShards(*shards)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}

	rt := cluster.NewRouter(cluster.Options{
		VNodes:         *vnodes,
		ProbeInterval:  *probeInterval,
		FailThreshold:  *failThreshold,
		PredictRetries: *retries,
	})
	for _, m := range members {
		rt.AddShard(m.id, m.addr)
		log.Printf("shard %s at %s", m.id, m.addr)
	}
	rt.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	log.Printf("listening on %s with %d shards", ln.Addr(), len(members))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	return serveHTTP(ln, rt.Mux(), sigc, *shutdownTO, func(context.Context) { rt.Close() })
}

type member struct{ id, addr string }

func parseShards(s string) ([]member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("is required (id=host:port,...)")
	}
	var out []member
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad shard %q, want id=host:port", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate shard id %q", id)
		}
		seen[id] = true
		out = append(out, member{id: id, addr: addr})
	}
	return out, nil
}

// fleet is a pre-trained universal model and what every serve.Server built
// over it shares: the dataset, the seeded classifier builder and the
// pruning options each personalization runs.
type fleet struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
	prune pruner.Options
}

// newFleet checks the pruning options (κ target, iterations, the fixed 2:4
// pattern and block size 4) before it pre-trains anything, then pre-trains
// a width-wide universal model of family f for pretrain epochs on perClass
// samples per class of the 8×8 synthetic dataset name.
func newFleet(name string, f models.Family, numClasses, width int, seed int64, pretrain, perClass int, target float64, iterations int) (*fleet, error) {
	prune := pruner.Options{
		Target: target, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: iterations, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	}
	if err := prune.Validate(); err != nil {
		return nil, err
	}
	ds := data.New(data.Config{
		Name: name, NumClasses: numClasses, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: seed,
	})
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(seed+1)), numClasses, width)
	}
	log.Printf("pre-training universal %s (%d classes, %d epoch(s))...", f, numClasses, pretrain)
	start := time.Now()
	base := build()
	pruner.Pretrain(base, ds, pretrain, perClass, seed+2)
	log.Printf("pre-trained in %.1fs", time.Since(start).Seconds())
	return &fleet{ds: ds, build: build, base: base, prune: prune}, nil
}

// httpServer serves h with read, header and idle timeouts, so a slow-loris
// client cannot pin a connection open forever.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveHTTP serves h on ln until the listener fails or a signal arrives on
// sigc. Then it shuts the server down, which stops accepting and lets
// in-flight handlers finish within timeout, and only then calls stop, the
// caller's teardown, under the same deadline. A listener that dies on its
// own (port taken away, fd limit) gets the same teardown, so pending
// snapshots still reach disk. It returns the listener's error, or nil
// after a signal.
func serveHTTP(ln net.Listener, h http.Handler, sigc <-chan os.Signal, timeout time.Duration, stop func(context.Context)) error {
	srv := httpServer(h)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-errc:
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: draining requests: %v", err)
	}
	stop(ctx)
	return err
}

// Command crisp-serve exposes the CRISP personalization service over HTTP:
// one pretrained universal model, per-user pruned engines built on a
// bounded worker pool, cached with LRU eviction and in-flight deduplication
// (see internal/serve for the cache semantics, internal/api for the
// endpoint surface).
//
// Endpoints (internal/api):
//
//	POST /personalize {"classes":[3,17,42]}
//	POST /predict     {"classes":[3,17,42], "samples":16}
//	POST /predict     {"classes":[3,17,42], "inputs":[[...C*H*W floats...], ...]}
//	POST /snapshot    (flush every cached engine to the snapshot dir)
//	GET  /stats
//	GET  /metrics     (Prometheus text exposition of the /stats counters)
//	GET  /healthz     (liveness + load; probed by crisp-router)
//	POST /drain       (shard drain: flush + handoff manifest)
//	POST /handoff     (adopt a tenant from the shared snapshot store)
//
// With -snapshot-dir the server is durable: completed personalizations are
// snapshotted write-behind, evicted engines keep their disk copy, and a
// restart restores every engine from disk instead of re-pruning. Pointing
// several shards at one shared directory makes it the cluster's handoff
// channel (see cmd/crisp-router).
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
// batching (the baseline cmd/crisp-load compares against).
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
//
// Usage:
//
//	crisp-serve -addr :8080 -num-classes 20 -target 0.85 -precision int8 -snapshot-dir /var/lib/crisp -shard-id shard-0
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
	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-serve: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		family     = flag.String("model", "resnet-s", "model family: resnet-s, vgg-s, mobilenet-s, transformer-s")
		width      = flag.Int("width", 2, "model width multiplier")
		numClasses = flag.Int("num-classes", 20, "number of classes in the universal model")
		pretrain   = flag.Int("pretrain-epochs", 4, "universal pre-training epochs at startup")
		perClass   = flag.Int("pretrain-per-class", 12, "pre-training samples per class")
		target     = flag.Float64("target", 0.85, "global sparsity target κ per personalization")
		workers    = flag.Int("workers", 0, "personalization worker bound (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", 64, "maximum cached engines (LRU beyond)")
		memBudget  = flag.String("memory-budget", "", "resident tenant-state byte budget enabling the hot/warm/cold tiered cache, e.g. 512M or 2G (empty: single-level LRU)")
		hotFrac    = flag.Float64("hot-fraction", 0.75, "share of -memory-budget reserved for hot compiled engines, in (0, 1]; the rest holds warm delta records")
		snapDir    = flag.String("snapshot-dir", "", "durable personalization store directory (empty: memory-only); shards sharing one directory can hand tenants off through it")
		maxBatch   = flag.Int("max-batch", 16, "coalesce concurrent predicts up to this many samples per engine call (1 disables batching)")
		linger     = flag.Duration("linger", 2*time.Millisecond, "max time a predict waits for batch mates before flushing")
		maxQueue   = flag.Int("max-queue", 256, "per-personalization predict queue bound in samples (full queue replies 429)")
		precision  = flag.String("precision", "float32", "engine precision: float32 (exact) or int8 (quantized plans; ~int8 tensor-core deployment)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty: disabled)")
		shardID    = flag.String("shard-id", "", "shard identity reported on /healthz and in drain manifests (empty: standalone)")
		shutdownTO = flag.Duration("shutdown-timeout", 30*time.Second, "max time to wait for in-flight requests on SIGINT/SIGTERM before forcing the listener closed")
		seed       = flag.Int64("seed", 1, "random seed")

		qosOff      = flag.Bool("qos-off", false, "disable QoS load shaping (no per-tenant quotas or deadline flushes; the FIFO baseline)")
		qosGold     = flag.String("qos-gold", "", "gold-class policy overrides, e.g. budget=10ms,rps=400,burst=100 (empty: defaults)")
		qosStandard = flag.String("qos-standard", "", "standard-class policy overrides (empty: defaults)")
		qosBatch    = flag.String("qos-batch", "", "batch-class policy overrides (empty: defaults)")
		shedWM      = flag.Float64("shed-watermark", 0, "fraction of -shed-global-queue at which over-quota tenants shed (0: default 0.5)")
		shedGlobal  = flag.Int("shed-global-queue", 0, "server-wide queued-sample reference for the shed watermark (0: 4 x max-queue)")
	)
	flag.Parse()

	f := models.Family(*family)
	switch f {
	case models.ResNet, models.VGG, models.MobileNet, models.Transformer:
	default:
		log.Fatalf("unknown model %q (want resnet-s, vgg-s, mobilenet-s or transformer-s)", *family)
	}

	var prec inference.Precision
	switch *precision {
	case "float32", "float", "fp32":
		prec = inference.Float32
	case "int8", "i8":
		prec = inference.Int8
	default:
		log.Fatalf("unknown precision %q (want float32 or int8)", *precision)
	}

	budget, err := parseBytes(*memBudget)
	if err != nil {
		log.Fatal(err)
	}
	tiers, err := tierMode(budget, *hotFrac)
	if err != nil {
		log.Fatal(err)
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
			log.Fatalf("-qos-%s: %v", c.class, err)
		}
		*c.dst = pol
	}

	// Reject bad pruning flags before paying for pre-training.
	prune := pruner.Options{
		Target: *target, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	}
	if err := prune.Validate(); err != nil {
		log.Fatal(err)
	}

	ds := data.New(data.Config{
		Name: "serve", NumClasses: *numClasses, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: *seed,
	})
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(*seed+1)), *numClasses, *width)
	}

	log.Printf("pre-training universal %s (%d classes, %d epochs)...", f, *numClasses, *pretrain)
	start := time.Now()
	base := build()
	all := make([]int, *numClasses)
	for i := range all {
		all[i] = i
	}
	opt := nn.NewSGD(0.05, 0.9, 4e-5)
	pruner.Finetune(base, ds.MakeSplit("pretrain", all, *perClass), *pretrain, 16, opt, rand.New(rand.NewSource(*seed+2)))
	base.ReleaseTrainingState()
	log.Printf("pre-trained in %.1fs", time.Since(start).Seconds())

	s, err := serve.NewServer(build, base, ds, serve.Options{
		Workers:           *workers,
		CacheSize:         *cacheSize,
		Prune:             prune,
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
		log.Fatal(err)
	}

	if *snapDir != "" {
		n, err := s.Restore()
		if err != nil {
			log.Fatal(err)
		}
		st := s.Stats()
		log.Printf("restored %d personalization(s) from %s (%d bad record(s) skipped)", n, *snapDir, st.RestoreErrors)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
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
	mux := api.NewMux(s, ds, api.Config{ShardID: *shardID})
	if err := run(ln, mux, *pprofAddr, s, *snapDir != "", sigc, *shutdownTO); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}

// run serves mux on ln until the listener fails or a signal arrives on
// sigc, then shuts down losslessly, in dependency order:
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
// shard draining impossible to build. Both listeners carry read/header/idle
// timeouts so a slow-loris client cannot pin a connection open forever, and
// the pprof listener is shut down through the same path instead of dying
// with a spurious error log.
func run(ln net.Listener, mux http.Handler, pprofAddr string, s *serve.Server, hasStore bool, sigc <-chan os.Signal, timeout time.Duration) error {
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var pprofSrv *http.Server
	if pprofAddr != "" {
		// The profiling endpoint is opt-in and on its own listener (bind it
		// to localhost), so hot-path profiles can be captured in-situ
		// without exposing /debug/pprof next to the public API. The pprof
		// import registers on DefaultServeMux; the API mux is separate, so
		// the main address never serves profiles.
		pprofSrv = &http.Server{
			Addr:              pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
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

	select {
	case err := <-errc:
		// The listener failed outright (port taken away, fd limit): still
		// run the lossless teardown so pending snapshots reach disk.
		gracefulStop(nil, pprofSrv, s, hasStore, timeout)
		return err
	case sig := <-sigc:
		log.Printf("received %v, shutting down (draining requests, flushing snapshots)...", sig)
		gracefulStop(srv, pprofSrv, s, hasStore, timeout)
		return nil
	}
}

// gracefulStop is the teardown half of run; srv may be nil when the
// listener already died.
func gracefulStop(srv, pprofSrv *http.Server, s *serve.Server, hasStore bool, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: draining requests: %v", err)
		}
	}
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

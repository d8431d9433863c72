// Package serve turns the one-shot Personalize workflow into a concurrent,
// multi-tenant personalization service — the serving layer CRISP implies:
// every user gets a model pruned to their own class subset, so a deployment
// is many small engines derived from one universal model.
//
// # Architecture
//
// Server owns a pretrained universal classifier and a bounded worker Pool.
// A Personalize request is resolved in one of three ways:
//
//   - Cache hit: the class set (canonicalized by sorting and deduplicating,
//     e.g. {17,3,3,42} → "3,17,42") already has a compiled engine; it is
//     returned immediately and refreshed in the LRU order.
//   - In-flight join (singleflight): an identical request is already being
//     pruned; the new request waits on the same job instead of starting a
//     duplicate, and both receive the same Personalization.
//   - Miss: a job is scheduled on the pool. It first looks the tenant up in
//     the tiers below the cache (a warm delta record, then the snapshot
//     store; see "Memory tiers"). Only a tenant no tier holds is pruned:
//     clone the universal model, run pruner.NewCRISP(...).Prune for the
//     class set, measure held-out accuracy, and encode the pruned clone as
//     a delta over the universal model. The pool bounds concurrent jobs at
//     Options.Workers (default GOMAXPROCS); submission blocks for
//     backpressure.
//
// Every tenant becomes servable the same way, whether it was just pruned,
// restored from disk or promoted from the warm tier: its delta is admitted —
// validated (checkpoint.ViewModelDelta) and compiled straight from the
// universal model's layer tree and that view (inference.NewFromSource). No
// serving path compiles from a classifier; a pruned clone lives only as
// long as the job that pruned it.
//
// Completed engines land in an LRU cache of Options.CacheSize entries;
// inserting past capacity evicts the least recently used engine (counted in
// Stats.Evictions). A Personalization is immutable and its engine is safe
// for concurrent batched inference, so any number of Predict calls may
// share one cached entry.
//
// Predict runs one batched sparse forward pass (Engine.Predict →
// Engine.Logits on a [B,C,H,W] batch), so B samples cost one SpMM per
// layer rather than B.
//
// # Dynamic batching (Options.MaxBatch, Linger, MaxQueue)
//
// A busy tenant sends many concurrent Predict calls at one personalized
// engine; with batching enabled (MaxBatch > 1, the default is 16) those
// calls coalesce into shared engine invocations instead of each running
// its own forward pass. Every cached Personalization owns a batcher, and
// one request flows through it as:
//
//   - Admission: the input shape is validated against the dataset (a
//     malformed tensor must never poison a shared batch) and the request is
//     appended to the personalization's queue — unless the queue already
//     holds MaxQueue samples, in which case the request is rejected
//     immediately with ErrOverloaded (Stats.Rejected; HTTP 429 in
//     crisp serve). Load sheds at the door instead of queueing without
//     bound. A single request larger than MaxQueue is still admitted when
//     the queue is empty, since it could never be admitted otherwise.
//   - Leading: the first request into an empty queue becomes the batch
//     leader. There are no background goroutines — the leader's own
//     goroutine waits up to Linger (default 2ms) for followers, woken
//     early the moment the queue reaches MaxBatch samples
//     (Stats.FlushSize / Stats.FlushLinger / Stats.FlushForced record
//     whether MaxBatch, the timer, or a DrainBatches flushed each batch).
//   - Flushing: the leader takes the whole queue and runs ONE engine call
//     over the sample tensors (inference.Engine.PredictBatch, which
//     concatenates them inside the engine's recycled arena — a coalesced
//     flush allocates no more than a solo predict; Stats.PredictBatches,
//     Stats.PredictNS, Stats.BatchSizeHist), then fans the argmax rows back
//     out to every waiting request. A panic inside the engine fails every
//     rider with an error instead of stranding followers. Requests that
//     arrived during the flush have already elected the next leader.
//
// Batched results are bit-identical to running each request alone — the
// batched SpMM accumulates every output element in the same order
// regardless of batch size — and the invariant survives snapshot restore,
// because restored engines are themselves bit-identical. MaxBatch = 1
// disables coalescing entirely: Predict calls the engine directly (the
// pre-batching solo path, still counted in the predict stats).
// Server.DrainBatches flushes all queued batches immediately — the
// graceful-drain hook for shutdown.
//
// # QoS scheduling (Options.QoS)
//
// Tenants carry a service class — QoSGold, QoSStandard (the zero default),
// QoSBatch — set at personalization time (PersonalizeQoS; the "qos" field
// of POST /personalize) and re-classable in place on a cached tenant. The
// class is serving-time state only: snapshots do not persist it, so a
// restored tenant reverts to Standard until the next PersonalizeQoS. Each
// class resolves to a QoSPolicy (LatencyBudget, QuotaRPS, QuotaBurst;
// DefaultQoSPolicy, overridable per class via QoSOptions) and a request
// flows through the scheduler as:
//
//   - Quota: the tenant's token bucket (refilled at its class QuotaRPS,
//     capped at QuotaBurst, charged per sample) is debited. An over-quota
//     tenant is only actually shed when the server is under pressure —
//     global queued samples at or past ShedWatermark × GlobalQueue — and
//     then fails with ErrOverQuota (HTTP 429, Stats.ShedByClass). This is
//     weighted shedding: the over-quota tenant is dropped before per-queue
//     admission control has to 429 everyone, and below the watermark
//     quotas never bite (the failed take leaves the bucket untouched, so
//     recovery is immediate).
//   - Deadline: an admitted request enters its tenant's batch queue
//     carrying deadline = arrival + LatencyBudget. The batch leader's wait
//     is min(oldestArrival + Linger, oldestDeadline − EWMA engine latency),
//     both anchored at the OLDEST rider — a leader descheduled between
//     enqueueing and leading never taxes the queue with a second full
//     linger, and a gold rider never spends its whole budget lingering for
//     batch mates (Stats.FlushDeadline counts deadline-cut flushes). Queue
//     waits are recorded per class in Stats.QueueWait histograms
//     (QueueWaitBoundsMS buckets).
//   - Lanes: pool work is split into two priority lanes — explicit
//     Personalize prunes (LanePersonalize) and predict-triggered cache-miss
//     resolution (LanePredict) — each capped at workers−1 concurrent jobs,
//     so with two or more workers neither lane can occupy every worker: a
//     flood of multi-second prunes cannot starve predicts, and vice versa.
//
// QoSOptions.Disabled turns the whole layer off (the FIFO baseline
// crisp load compares against); the arrival-relative linger remains,
// because that is a correctness fix rather than policy. crisp load
// replays a Zipf-skewed, diurnally-bursty multi-tenant trace against this
// scheduler and, in CI, gates the resulting per-class latency and
// shed-rate report against SLO_baseline.json (its -baseline flag).
//
// # Snapshot lifecycle (Options.SnapshotDir)
//
// With a snapshot directory configured the cache becomes durable, so a
// restart reloads engines from disk instead of re-running the
// prune+fine-tune pipeline per tenant (the re-prune stampede the paper's
// amortization argument assumes away):
//
//   - Write-behind: when a pruning job completes, its Personalization is
//     written as a checkpoint v5 personalization record — the tenant's
//     fixed-size header (class set, accuracy, achieved sparsity, FLOPs
//     ratio) over its model delta, verbatim (a Float32 tenant's is derived
//     from its engine first) — on the worker pool; Personalize and Predict
//     never wait on disk, and no model is built for the write. The record is
//     the very bytes a warm entry holds, under the very header the hot
//     tenant and the warm entry share (checkpoint.PersonalizationRecord):
//     no tier keeps the pruning run's per-layer or per-round log.
//     Once the store acknowledges it, an Int8 tenant drops the delta it
//     held: the record is its delta from then on.
//     Records land via temp-file + rename, and an index file names the
//     valid records, so a crash mid-write can never surface a torn
//     snapshot.
//   - Restore-on-start: Server.Restore rebuilds indexed records into
//     cached engines — up to the cache capacity; any remaining keys load
//     lazily on first request — by admitting each record's delta like any
//     other tenant's (compiled buffers are never persisted, and no model is
//     built). A delta restores over any universal model of its
//     architecture. Corrupt, truncated or unreadable records — another
//     version (a v4 record an older build wrote), another architecture —
//     are quarantined, skipped and counted
//     in Stats.RestoreErrors; a bad snapshot never takes the server down,
//     and costs its tenant one re-prune. Restored engines are bit-identical
//     to the originals: the delta preserves exact float64 bits and format
//     compilation is deterministic.
//   - Eviction keeps the disk copy: an engine dropped by the LRU policy
//     stays on disk, and the next request for its class set restores it
//     (counted in Stats.RestoreHits) instead of re-pruning.
//   - Explicit flush: Server.Flush waits for pending write-behind
//     snapshots and writes any resident tenant not yet on disk — a hot
//     engine, or a warm record whose write at demotion failed — the admin
//     hook before a planned restart (POST /snapshot in crisp serve).
//
// # Memory tiers (Options.MemoryBudgetBytes)
//
// A full-copy engine cache — a complete model clone beside every compiled
// engine, 24 bytes per parameter — cannot reach millions of tenants. No
// cached Personalization holds one: the cache is built on two structural
// facts, that every tenant is a delta over ONE universal model and that
// serving only ever reads the effective weights W ⊙ Mask. A hot tenant is
// a compiled engine, which owns everything it reads; the pruned classifier
// dies with the call that built it. A Float32 engine holds every value the
// tenant's delta would, so it is the tenant's only copy: a demotion or
// snapshot write derives the delta from it (checkpoint.EncodeEngineDelta),
// the bytes the pruned clone encodes to, which are what the warm tier holds
// and what a snapshot record carries. An Int8 engine holds lossy images,
// so an Int8 tenant keeps the delta it was compiled from until the snapshot
// store has acknowledged the tenant's record; then it drops the delta, and
// the record stands in for it. With a byte budget configured the cache
// becomes a three-tier hierarchy:
//
//	hot   — compiled engine (and, at Int8, its delta until the tenant is
//	        durable), ready to Predict.
//	        Bounded by CacheSize and by HotFraction (default 0.75) of the
//	        budget. Every engine owns its plans and shares none: each
//	        tenant is fine-tuned between pruning rounds, so no two tenants
//	        — nor a tenant and the universal model — compile equal plans,
//	        and there is nothing to share. An engine retains what its
//	        forward pass reads and nothing else. On the benchmark fixture
//	        a hot resnet-s tenant is ~196 KB at Float32 (the engine alone)
//	        against ~80 KB at Int8 once durable (the ~78 KB engine alone;
//	        ~257 KB while it still holds its ~177 KB delta); transformer-s
//	        ~29 KB against ~22 KB (~46 KB with its ~24 KB delta). Each tenant
//	        costs the same whatever else is resident, so the hot tier
//	        holds HotFraction·budget / (Stats.HotBytes/CachedEngines)
//	        tenants at the precision you serve.
//	warm  — demoted tenants as the delta alone: bit-packed masks plus
//	        kept-position weight values only, a small fraction of a full
//	        copy. Bounded by the rest of the budget.
//	ssd   — (cold) the snapshot store, unbounded; demotion synchronously
//	        writes the disk copy before the engine is released, and a
//	        warm record whose write failed is written by the next Flush.
//
// Lifecycle: an insert past the hot bound demotes the LRU engine — its
// delta is derived (Float32), taken (an Int8 tenant that still holds it) or
// read back from the tenant's record (a durable Int8 tenant: the read a
// cold restore makes, so a bad record is quarantined, nothing parks, and
// the tenant's next request re-prunes), its batcher flushes, the engine is
// dropped — and the delta parks in a warm LRU (Stats.Demotions).
// A request for a warm tenant promotes instead of re-pruning: the delta is
// admitted like every other (a checksum-verified checkpoint.DeltaView over
// the universal model, no classifier built), and the engine is verified
// against the structural fingerprint (and, on Int8, the quant signature)
// captured at demotion (Stats.WarmHits/Promotions; failing either counts
// PromoteErrors and falls to the cold tier). Warm records squeezed out by
// the budget drop to disk (Stats.WarmEvictions); cold tenants restore as
// before. A Personalize miss and a handoff adopt share this one warm → cold
// lookup and its counters. Every transition is exact: promotion is bit-identical
// on the float path and QuantSignature-identical on int8, because the delta
// preserves precisely what compilation and deterministic quantization read.
// Stats.DemoteNanos, PromoteNanos and RestoreNanos accumulate the wall time
// of those three transitions; over Demotions, Promotions and RestoreHits
// they are what one costs on the running system.
// Budget 0 (the default) keeps the single-level count LRU; evicted engines
// release immediately and rely on the cold tier alone.
//
// # HTTP endpoints (internal/api, served by crisp serve)
//
//	POST /personalize {"classes":[3,17,42]}
//	  → {"key","classes","cached","accuracy","sparsity","flops_ratio","compressed_layers"}
//	  Builds (or fetches) the engine for the class set.
//
//	POST /predict {"classes":[3,17,42], "samples":16}
//	  → {"key","predictions","labels","accuracy","samples"}
//	  Personalizes if needed, synthesizes a batch of the class set's
//	  samples, and classifies it in one batched sparse forward pass.
//	  Alternatively pass "inputs": [[...C*H*W floats...], ...] to classify
//	  caller-provided images; "labels" is then omitted. "samples" may ask
//	  for no more rows than a body within the size limit could carry as
//	  "inputs" (api.MaxBody / (2·C·H·W)); more is a 400.
//
//	POST /snapshot
//	  → {"written","snapshot_writes","snapshot_errors"}
//	  Flushes every cached engine to the snapshot dir (400 when the server
//	  runs memory-only, i.e. without -snapshot-dir).
//
//	GET /stats
//	  → the serve.Stats counters (requests, cache_hits, cache_misses,
//	  dedup_joins, evictions, personalizations, predict_batches,
//	  samples_predicted, rejected, flush_size, flush_linger, flush_forced,
//	  predict_ns, batch_size_hist, queue_depth, snapshot_writes,
//	  snapshot_errors, restore_hits, restore_errors, cached_engines,
//	  in_flight, workers).
//
//	GET /metrics
//	  → the same counters in the Prometheus text exposition format
//	  (crisp_serve_* families; batch sizes as a cumulative histogram).
//
// # Precision (Options.Precision)
//
// Options.Precision selects the execution precision every personalized
// engine compiles at: inference.Float32 (default — compiled float plans,
// bit-identical to the masked dense model) or inference.Int8 (quantized
// plans: int8 weight codes at per-row scales, on-the-fly activation
// quantization, 32-bit integer accumulation, dequantize-on-store — the
// CRISP-STC deployment precision). Int8 is approximate, and the server
// treats that as a first-class, measured property:
//
//   - At personalization (and restore) time the server compiles the float
//     reference engine once, from the same delta view as the served
//     engine, and measures top-1 agreement on the held-out split — never on
//     the predict path; a promotion carries the stored agreement over. The result is surfaced per
//     tenant (Personalization.Agreement) and aggregated in Stats
//     (AgreementSamples/AgreementMatches/Top1Agreement).
//   - Snapshot records are precision-agnostic: they persist float values
//     and masks only, so a directory written by a Float32 server restores
//     on an Int8 server (re-quantizing) and vice versa. Quantization is
//     deterministic — a restored engine carries exactly the pre-restart
//     codes (inference.Engine.QuantSignature pins this in the tests), so
//     int8 predictions are bit-identical across restarts even though they
//     are approximate relative to float.
//   - Quantization fails closed: a model with NaN/Inf weights errors at
//     compile instead of encoding garbage, and the personalization
//     surfaces that error to the caller.
//
// # Drain and handoff (the cluster shard surface)
//
// A Server doubles as one shard of a consistent-hash cluster
// (internal/cluster); the shard-side lifecycle is three exported hooks,
// all built on the fact that a tenant's durable state is its snapshot
// record and restores are bit-identical:
//
//   - BeginDrain flips the server into draining: Personalize (and thus
//     Predict) for tenants it does not already hold — hot or warm — fails
//     with ErrDraining (HTTP 503 + Retry-After), while residents keep
//     serving. There is no way back; a drained shard restarts fresh.
//   - Drain is the full shard-side handoff: BeginDrain, force queued
//     batches out, Flush every resident to the (shared) snapshot store,
//     and return the manifest of tenants — key, classes, structural
//     fingerprint, quant signature on int8 — another shard can adopt.
//   - RestoreTenant is the receiving side: adopt one tenant through the
//     lookup a Personalize miss makes (local warm record, else the shared
//     store, re-reading the store's index first to pick up records written
//     by peer shards) and verify the rebuilt engine against the sending
//     shard's fingerprints. It never falls back to a pruning run — a
//     handoff for missing state is a loud error
//     (Stats.HandoffRestores/HandoffErrors).
//
// A fingerprint is a function of the build as well as of the tenant: it
// hashes every compiled plan, so a build that compiles more matrices into
// plans (attention's Q/K/V/O projections joined the rest) reports different
// values for the same tenant. Fingerprints live in memory only — no record
// carries one — so nothing on disk goes stale, but a handoff between shards
// of different builds fails closed: the receiver's engine does not match the
// sender's manifest, the adoption is refused (HandoffErrors), and the tenant
// comes back on first touch through the ordinary miss path — a restore from
// the shared store, else a re-prune.
//
// Crash recovery needs no handoff call at all: the ordinary personalize
// miss path refreshes the shared store index before pruning, so a
// survivor that inherits a dead shard's tenant restores it on first touch
// (Stats.RestoreHits, zero re-prunes).
//
// The Pool is the serving layer's own scheduler: the figure runner
// (crisp figures) bounds its fan-out itself and does not share it.
package serve

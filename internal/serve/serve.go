package serve

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/inference"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/tensor"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent personalization jobs (<= 0: GOMAXPROCS).
	Workers int
	// CacheSize is the maximum number of personalized engines kept alive;
	// beyond it the least recently used engine is evicted (<= 0: 64).
	CacheSize int
	// Prune configures the CRISP pruning run behind every personalization;
	// zero fields take the pruner defaults (pruner.Options.WithDefaults).
	Prune pruner.Options
	// TrainPerClass and TestPerClass size the per-user splits
	// (<= 0: 32 and 16).
	TrainPerClass, TestPerClass int
	// SnapshotDir enables the durable personalization store: completed
	// personalizations are snapshotted to this directory (write-behind, on
	// the worker pool), cache misses check disk before re-pruning, and
	// Restore rebuilds every engine on startup. Empty means memory-only.
	SnapshotDir string
	// MaxBatch enables cross-request dynamic batching: concurrent Predict
	// calls against one personalization coalesce into shared engine
	// invocations, flushed once the queue holds MaxBatch samples (or the
	// Linger timeout fires). 1 disables batching (every request runs its
	// own engine call); <= 0 defaults to 16. Batched results are
	// bit-identical to the solo path.
	MaxBatch int
	// Linger is how long a batch leader waits for more requests before
	// flushing a sub-MaxBatch batch (<= 0: 2ms). It bounds the latency a
	// lone request pays for the chance to share a batch.
	Linger time.Duration
	// MaxQueue bounds each personalization's predict queue, in samples;
	// a request that would overflow it is rejected with ErrOverloaded
	// (admission control) instead of queueing unboundedly (<= 0: 256).
	MaxQueue int
	// Precision selects the execution precision personalized engines are
	// compiled at: inference.Float32 (the default, bit-identical to the
	// masked dense model) or inference.Int8 (quantized plans — int8 weight
	// codes, int32 accumulate; approximate). At Int8 every personalization
	// additionally compiles a float reference engine once and measures its
	// top-1 agreement on the held-out split, surfaced per tenant as
	// Personalization.Agreement and aggregated in Stats.
	Precision inference.Precision
	// MemoryBudgetBytes, when > 0, turns the engine cache into a three-tier
	// hot/warm/cold hierarchy governed by a byte budget instead of a pure
	// count LRU: hot compiled engines may use up to HotFraction of the
	// budget, engines evicted from hot are demoted to compact warm records
	// (a delta over the universal weights — typically a small fraction of
	// a full copy), and warm records squeezed out by the budget
	// fall back to the cold tier (disk snapshots, when SnapshotDir is set).
	// Promotion back to hot is bit-identical on the float path and
	// QuantSignature-identical on int8. 0 (the default) keeps the
	// single-level count-bounded LRU: evicted engines release their state
	// immediately and rely on the cold tier alone.
	MemoryBudgetBytes int64
	// HotFraction is the share of MemoryBudgetBytes reserved for hot
	// compiled engines; the remainder holds warm records. Outside (0, 1]
	// it defaults to 0.75. Ignored when MemoryBudgetBytes is 0.
	HotFraction float64
	// QoS configures the load-shaping layer: per-tenant service classes
	// (gold/standard/batch) with class-weighted token-bucket quotas,
	// deadline-aware batch flushing, and weighted shedding that drops
	// over-quota tenants (ErrOverQuota) before admission control has to
	// reject everyone. Zero-valued fields take the class defaults
	// (DefaultQoSPolicy); set QoS.Disabled for the FIFO baseline.
	QoS QoSOptions
	// FS is the filesystem the snapshot store writes through; nil means the
	// real one (fault.OS). Crash tests and the cluster storm e2e pass a
	// fault.NewFS here to inject torn writes, read bit-flips and fsync
	// stalls under the serving stack without touching it.
	FS fault.FS
}

// withDefaults fills unset serving options.
func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.TrainPerClass <= 0 {
		o.TrainPerClass = 32
	}
	if o.TestPerClass <= 0 {
		o.TestPerClass = 16
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.Linger <= 0 {
		o.Linger = 2 * time.Millisecond
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.MemoryBudgetBytes < 0 {
		o.MemoryBudgetBytes = 0
	}
	if !(o.HotFraction > 0 && o.HotFraction <= 1) {
		o.HotFraction = 0.75
	}
	if o.FS == nil {
		o.FS = fault.OS{}
	}
	o.Prune = o.Prune.WithDefaults()
	return o
}

// Personalization is one cached tenant model: the compiled sparse engine of
// the CRISP-pruned classifier for a class set, the tenant's header (key,
// classes, accuracy and pruning summary: the one a warm entry and the
// tenant's snapshot record hold) and, at Int8 only and only until the tenant
// is durable, that classifier as a delta over the universal model. The
// classifier itself is not kept: the engine owns everything it reads. Its
// exported fields and engine never change after creation, and it is safe
// for concurrent Predict use; delta and size change once, when the store
// acknowledges the tenant's record (dropDelta), and are read and written
// under the server's mu.
type Personalization struct {
	checkpoint.PersonalizationRecord
	// Agreement is the measured top-1 agreement between this engine and the
	// full-precision reference on the held-out split — the per-tenant cost
	// of int8 deployment. Trivially 1 for Float32 engines (they are the
	// reference).
	Agreement float64

	engine *inference.Engine
	// delta is the Int8 tenant's checkpoint model delta over the universal
	// base: the engine was compiled from it (admit), and a demotion parks it
	// as the warm record or a snapshot write stores it. It is held only while
	// nothing else can give it back (keepsDelta): never at Float32, whose
	// engine holds every value the delta would and derives the same bytes
	// (deltaOf), and at Int8 only until the store has acknowledged the
	// tenant's record — after that deltaOf reads the record.
	// Guarded by the server's mu; its bytes are never written.
	delta []byte
	// bat coalesces concurrent Predict calls against this engine; nil when
	// batching is disabled (Options.MaxBatch <= 1).
	bat *batcher
	// qos is the tenant's service class (a QoSClass; atomic because
	// PersonalizeQoS may re-class a tenant while predicts are in flight).
	// bucket is its token-bucket quota, charged per predicted sample at the
	// class rate.
	qos    atomic.Int32
	bucket tokenBucket
	// size is the resident cost this personalization charges against the
	// hot tier: engine-owned compiled state, plus the delta while one is
	// held (see newPersonalization, dropDelta). Guarded by the server's mu.
	size int64
}

// release frees the per-tenant serving state an eviction leaves behind:
// the batcher's queued generation is flushed (its waiting callers are
// served, its pooled slices recycled). In-flight Predicts racing the release
// still complete — the engine is untouched; it is garbage once no caller
// holds it. Safe to call more than once, and concurrently.
func (p *Personalization) release() {
	if p.bat != nil {
		p.bat.forceFlush()
	}
}

// Engine exposes the compiled sparse inference engine.
func (p *Personalization) Engine() *inference.Engine { return p.engine }

// QoS returns the tenant's current service class.
func (p *Personalization) QoS() QoSClass { return QoSClass(p.qos.Load()) }

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Requests counts Personalize calls (including ones served from cache).
	Requests uint64 `json:"requests"`
	// CacheHits, CacheMisses and DedupJoins partition Requests: a hit found
	// a cached engine, a miss started a pruning job, a join attached to an
	// identical in-flight job instead of starting a duplicate.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	DedupJoins  uint64 `json:"dedup_joins"`
	// Evictions counts engines dropped by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Personalizations counts completed pruning jobs.
	Personalizations uint64 `json:"personalizations"`
	// PredictBatches and SamplesPredicted count engine invocations on the
	// predict path and the samples they served; with dynamic batching one
	// batch serves many concurrent requests.
	PredictBatches   uint64 `json:"predict_batches"`
	SamplesPredicted uint64 `json:"samples_predicted"`
	// Rejected counts Predict requests dropped by admission control
	// (ErrOverloaded: the personalization's queue was full).
	Rejected uint64 `json:"rejected"`
	// FlushSize, FlushLinger, FlushForced and FlushDeadline partition
	// batched flushes by trigger: the queue reached MaxBatch samples, the
	// linger window (relative to the oldest rider's arrival) closed, a
	// DrainBatches forced a partial batch out, or the oldest rider's QoS
	// latency budget neared exhaustion (deadline-aware linger).
	FlushSize     uint64 `json:"flush_size"`
	FlushLinger   uint64 `json:"flush_linger"`
	FlushForced   uint64 `json:"flush_forced"`
	FlushDeadline uint64 `json:"flush_deadline"`
	// ShedByClass counts weighted-shedding drops (ErrOverQuota) per QoS
	// class name: over-quota tenants dropped under queue pressure before
	// blanket admission control has to 429 everyone.
	ShedByClass map[string]uint64 `json:"shed_by_class"`
	// QueueWait captures batched-predict queue waits (rider arrival → flush
	// start) per QoS class name.
	QueueWait map[string]QueueWaitStats `json:"queue_wait"`
	// QoSEnabled reports whether the load-shaping layer is active (false
	// when Options.QoS.Disabled — the FIFO baseline).
	QoSEnabled bool `json:"qos_enabled"`
	// PredictNS is cumulative wall time (nanoseconds) spent inside engine
	// invocations on the predict path; PredictNS / PredictBatches is the
	// mean batch latency.
	PredictNS uint64 `json:"predict_ns"`
	// BatchSizeHist is a histogram of engine-invocation batch sizes with
	// upper bounds 1, 2, 4, 8, 16, 32, 64, +Inf (samples per invocation).
	BatchSizeHist [8]uint64 `json:"batch_size_hist"`
	// QueueDepth is the current number of samples waiting in predict
	// queues across all personalizations.
	QueueDepth int `json:"queue_depth"`
	// SnapshotWrites counts personalization records durably written to the
	// snapshot store; SnapshotErrors counts failed writes (the engine stays
	// cached either way).
	SnapshotWrites uint64 `json:"snapshot_writes"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// RestoreHits counts engines rebuilt from disk instead of re-pruned
	// (Server.Restore, and the tier lookup a cache miss and a handoff adopt
	// share); RestoreErrors counts records that failed to load or compile
	// and were skipped.
	RestoreHits   uint64 `json:"restore_hits"`
	RestoreErrors uint64 `json:"restore_errors"`
	// SnapshotsQuarantined counts corrupt on-disk records the restore path
	// moved aside (renamed *.quarantined and de-indexed). Each one costs
	// exactly one re-prune — the next personalization of the key runs fresh
	// and re-snapshots over the slot — instead of failing every restore of
	// that tenant forever.
	SnapshotsQuarantined uint64 `json:"snapshots_quarantined"`
	// HandoffRestores counts tenants adopted from another shard via
	// RestoreTenant (verified against the sending shard's fingerprints);
	// HandoffErrors counts adoptions that failed (missing record or a
	// fingerprint mismatch). An adoption also counts the tier transition
	// that produced it (Promotions or RestoreHits, and their errors), like
	// any other lookup. Draining reports BeginDrain was called: this shard
	// serves resident tenants but accepts no new ones.
	HandoffRestores uint64 `json:"handoff_restores"`
	HandoffErrors   uint64 `json:"handoff_errors"`
	Draining        bool   `json:"draining"`
	// Tier flows (MemoryBudgetBytes > 0): WarmHits counts lookups (cache
	// misses and handoff adopts) that found a warm delta record, Promotions
	// the engines those rebuilt into the hot tier, Demotions the hot engines
	// compacted to warm records on eviction, WarmEvictions the warm records
	// dropped for budget (their cold snapshot, if any, remains), and
	// PromoteErrors the warm records that failed verification at promote
	// time (the lookup fell through to the cold tier; a miss then prunes).
	WarmHits      uint64 `json:"warm_hits"`
	Promotions    uint64 `json:"promotions"`
	Demotions     uint64 `json:"demotions"`
	WarmEvictions uint64 `json:"warm_evictions"`
	PromoteErrors uint64 `json:"promote_errors"`
	// PromoteNanos, RestoreNanos and DemoteNanos are cumulative wall time
	// inside warm promotions (delta → engine), cold restores (disk record →
	// delta → engine) and demotions, failed attempts included; a fresh
	// prune's compile counts in neither. Divided by Promotions, RestoreHits
	// and Demotions they are the mean cost of one transition.
	PromoteNanos uint64 `json:"promote_nanos"`
	RestoreNanos uint64 `json:"restore_nanos"`
	DemoteNanos  uint64 `json:"demote_nanos"`
	// CachedEngines and InFlight are current gauges.
	CachedEngines int `json:"cached_engines"`
	InFlight      int `json:"in_flight"`
	// MemoryBudgetBytes echoes Options.MemoryBudgetBytes (0: single-level
	// LRU); HotBytes and WarmBytes are the tier residencies it governs;
	// WarmEntries and ColdRecords count warm delta records and indexed disk
	// snapshots.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	HotBytes          int64 `json:"hot_bytes"`
	WarmBytes         int64 `json:"warm_bytes"`
	WarmEntries       int   `json:"warm_entries"`
	ColdRecords       int   `json:"cold_records"`
	// Workers echoes the pool bound.
	Workers int `json:"workers"`
	// Precision echoes the engine precision mode every personalization is
	// compiled at ("float32" or "int8").
	Precision string `json:"precision"`
	// AgreementSamples and AgreementMatches accumulate the per-
	// personalization int8-vs-float top-1 agreement measurements (Int8
	// servers only; each pruned or restored personalization contributes its
	// held-out split once, a promotion carries its stored agreement over).
	// Top1Agreement is their ratio — the measured fleet-wide accuracy cost
	// of serving quantized — or 1 when nothing has been measured yet.
	AgreementSamples uint64  `json:"agreement_samples"`
	AgreementMatches uint64  `json:"agreement_matches"`
	Top1Agreement    float64 `json:"top1_agreement"`
}

// QueueWaitStats is one QoS class's queue-wait distribution: a histogram
// over QueueWaitBoundsMS plus the sum and count for means.
type QueueWaitStats struct {
	// Hist buckets riders by queue wait; bucket i covers waits up to
	// QueueWaitBoundsMS[i] milliseconds, the last bucket is +Inf.
	Hist [len(QueueWaitBoundsMS) + 1]uint64 `json:"hist"`
	// SumNS is the cumulative queue wait in nanoseconds; Count the riders
	// measured.
	SumNS uint64 `json:"sum_ns"`
	Count uint64 `json:"count"`
}

// QueueWaitBoundsMS are the queue-wait histogram's upper bounds in
// milliseconds (the final implicit bucket is +Inf). Shared with the
// Prometheus exposition in internal/api.
var QueueWaitBoundsMS = [7]float64{0.25, 0.5, 1, 2.5, 5, 10, 50}

// predictCounters are the predict-path counters. The control-plane counters
// (Personalize bookkeeping) stay under Server.mu — they already hold it for
// the cache — but the predict fan-in is the hot path: with dynamic batching
// many goroutines retire per-request counters concurrently, so these are
// sync/atomic and never touch Server.mu (the -race storm in batcher_test.go
// guards this split).
type predictCounters struct {
	batches     atomic.Uint64    // engine invocations
	samples     atomic.Uint64    // samples those invocations served
	rejected    atomic.Uint64    // admission-control drops
	flushSize   atomic.Uint64    // batches flushed on MaxBatch
	flushLinger atomic.Uint64    // batches flushed on the Linger timer
	flushForced atomic.Uint64    // partial batches forced out by DrainBatches
	latencyNS   atomic.Uint64    // cumulative engine wall time
	queued      atomic.Int64     // gauge: samples waiting across batchers
	hist        [8]atomic.Uint64 // batch sizes: <=1,2,4,8,16,32,64,+Inf

	flushDeadline atomic.Uint64                // batches flushed on a rider's deadline
	shed          [NumQoSClasses]atomic.Uint64 // ErrOverQuota drops per class
	qwHist        [NumQoSClasses][len(QueueWaitBoundsMS) + 1]atomic.Uint64
	qwNS          [NumQoSClasses]atomic.Uint64
	qwCount       [NumQoSClasses]atomic.Uint64
}

// observe retires one engine invocation of n samples taking d.
func (c *predictCounters) observe(n int, d time.Duration) {
	c.batches.Add(1)
	c.samples.Add(uint64(n))
	c.latencyNS.Add(uint64(d.Nanoseconds()))
	b := 0
	for bound := 1; b < len(c.hist)-1 && n > bound; b++ {
		bound <<= 1
	}
	c.hist[b].Add(1)
}

// observeWait retires one rider's queue wait into its class histogram.
func (c *predictCounters) observeWait(class QoSClass, w time.Duration) {
	if class < 0 || int(class) >= NumQoSClasses {
		class = QoSStandard
	}
	ms := w.Seconds() * 1e3
	b := 0
	for b < len(QueueWaitBoundsMS) && ms > QueueWaitBoundsMS[b] {
		b++
	}
	c.qwHist[class][b].Add(1)
	if ns := w.Nanoseconds(); ns > 0 {
		c.qwNS[class].Add(uint64(ns))
	}
	c.qwCount[class].Add(1)
}

// inflightCall tracks one running personalization so identical concurrent
// requests share it (singleflight).
type inflightCall struct {
	done chan struct{}
	p    *Personalization
	err  error
	// pruned is the leader's own: whether the job ran the pruner, not a
	// restore or promotion. It rides in the call rather than in a variable
	// the pool job's closure would move to the heap.
	pruned bool
}

// Server is the multi-tenant personalization service: it owns one
// pretrained universal model and materializes, caches and serves per-user
// CRISP-pruned engines.
type Server struct {
	opts  Options
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
	pool  *Pool
	store *snapshotStore // nil when Options.SnapshotDir is empty
	// budget and hotBudget freeze the tier policy derived from Options:
	// total resident bytes (hot + warm) and the hot tier's share. Zero
	// budget means the legacy single-level count LRU.
	budget, hotBudget int64
	// qos is the resolved load-shaping policy (see qos.go): per-class
	// latency budgets and quotas plus the shed watermark.
	qos qosRuntime
	// snapMu/snapCond guard the pending counters: pendingSnaps counts
	// write-behind snapshots not yet on disk, pendingJobs counts
	// personalization jobs between submission and their snapshot being
	// scheduled — Close drains both so no write is lost, even for a job
	// that lost the race to pool closure and ran inline on its caller. A
	// plain WaitGroup would be misuse here: live traffic Adds from zero
	// concurrently with Flush's Wait (the /snapshot endpoint), which the
	// WaitGroup contract forbids.
	snapMu       sync.Mutex
	snapCond     *sync.Cond
	pendingSnaps int
	pendingJobs  int

	// draining, once set (BeginDrain), rejects personalizations for tenants
	// this server does not already hold — the shard-side half of a cluster
	// handoff (see handoff.go).
	draining atomic.Bool

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> lru element holding *Personalization
	lru      *list.List               // front = most recently used
	inflight map[string]*inflightCall
	// warm/warmLRU hold demoted tenants as delta records (see tier.go);
	// hotBytes/warmBytes are the tiers' current residencies.
	warm                map[string]*list.Element // key -> warmLRU element holding *warmEntry
	warmLRU             *list.List               // front = most recently demoted/touched
	hotBytes, warmBytes int64
	stats               Stats // control-plane counters only; see predictCounters

	counters predictCounters
}

// NewServer builds a server around a pretrained universal model. build must
// construct a fresh classifier architecturally identical to base; every
// personalization clones base's weights into a new instance before pruning,
// so base's weights are never mutated. The server never trains base, so it
// drops whatever training workspace base still pins from its pre-training
// (nn.Classifier.ReleaseTrainingState, invisible to predictions and to any
// later training): a server lives for hours and is charged for its tenants,
// not for its base's last fine-tune. Invalid pruning options are reported
// as an error, not a panic: this is a user-facing entry point.
func NewServer(build func() *nn.Classifier, base *nn.Classifier, ds *data.Dataset, opts Options) (*Server, error) {
	if err := opts.Prune.Validate(); err != nil {
		return nil, err
	}
	base.ReleaseTrainingState()
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		ds:       ds,
		build:    build,
		base:     base,
		pool:     NewPool(opts.Workers),
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*inflightCall{},
		warm:     map[string]*list.Element{},
		warmLRU:  list.New(),
	}
	s.budget = opts.MemoryBudgetBytes
	if s.budget > 0 {
		s.hotBudget = int64(float64(s.budget) * opts.HotFraction)
	}
	s.stats.MemoryBudgetBytes = s.budget
	s.qos = newQoSRuntime(opts.QoS, opts.MaxQueue)
	s.stats.QoSEnabled = !s.qos.disabled
	s.snapCond = sync.NewCond(&s.snapMu)
	if opts.SnapshotDir != "" {
		store, err := openStore(opts.SnapshotDir, opts.FS)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = store
	}
	s.stats.Workers = s.pool.Workers()
	s.stats.Precision = opts.Precision.String()
	return s, nil
}

// Close waits for pending write-behind snapshots and drains the worker
// pool. Personalizations in flight when Close starts still get their
// snapshots: pool.Close drains pooled jobs, the job wait covers jobs that
// lost the race to pool closure and ran inline on their caller, and the
// final snapshot wait sees out every write they registered.
func (s *Server) Close() {
	s.pendingWait(&s.pendingSnaps)
	s.pool.Close()
	s.pendingWait(&s.pendingJobs)
	s.pendingWait(&s.pendingSnaps)
}

// pendingAdd/pendingDone/pendingWait maintain one of the pending counters
// (snapMu-guarded; counter must be a field of s).
func (s *Server) pendingAdd(counter *int) {
	s.snapMu.Lock()
	*counter++
	s.snapMu.Unlock()
}

func (s *Server) pendingDone(counter *int) {
	s.snapMu.Lock()
	if *counter--; *counter == 0 {
		s.snapCond.Broadcast()
	}
	s.snapMu.Unlock()
}

func (s *Server) pendingWait(counter *int) {
	s.snapMu.Lock()
	for *counter > 0 {
		s.snapCond.Wait()
	}
	s.snapMu.Unlock()
}

// Pool returns the server's scheduler, the bounded worker pool every
// personalization and snapshot write runs on.
func (s *Server) Pool() *Pool { return s.pool }

// Canonicalize validates a user class set against the dataset and returns
// the sorted, deduplicated set plus its cache key.
func (s *Server) Canonicalize(classes []int) ([]int, string, error) {
	canon, err := s.CanonicalizeInPlace(slices.Clone(classes))
	if err != nil {
		return nil, "", err
	}
	return canon, string(AppendKey(nil, canon)), nil
}

// CanonicalizeInPlace is Canonicalize for a caller that owns classes: the
// set is validated, then sorted and deduplicated where it lies, so an
// already-canonical set costs no allocation. The key is AppendKey's to build.
func (s *Server) CanonicalizeInPlace(classes []int) ([]int, error) {
	if len(classes) == 0 {
		return nil, errors.New("serve: empty class set")
	}
	for _, c := range classes {
		if c < 0 || c >= s.ds.NumClasses {
			return nil, fmt.Errorf("serve: class %d outside [0,%d)", c, s.ds.NumClasses)
		}
	}
	return sortDedup(classes), nil
}

// AppendKey appends the tenant key of a class set to dst: its ids sorted,
// deduplicated and comma-joined. It is the one definition of the key — the
// engine cache, the snapshot index and the cluster router's ring all place a
// tenant by it — and it does not validate ids against a dataset: a range
// error is the owning server's to report. A strictly increasing set is
// joined as it stands; any other is sorted in a copy (on the stack up to 16
// classes), so classes is never modified.
func AppendKey(dst []byte, classes []int) []byte {
	if !strictlyIncreasing(classes) {
		var buf [16]int
		classes = sortDedup(append(buf[:0], classes...))
	}
	for i, c := range classes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

func strictlyIncreasing(classes []int) bool {
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			return false
		}
	}
	return true
}

// sortDedup sorts classes in place and returns the prefix of distinct ids.
func sortDedup(classes []int) []int {
	if strictlyIncreasing(classes) {
		return classes
	}
	slices.Sort(classes)
	return slices.Compact(classes)
}

// Personalize returns the engine for the given class set, building it on
// the worker pool if it is neither cached nor already in flight. The bool
// reports whether the result came straight from the cache. The tenant's QoS
// class is left as it is (Standard for a brand-new tenant); use
// PersonalizeQoS to set it.
func (s *Server) Personalize(classes []int) (*Personalization, bool, error) {
	return s.personalizeLane(classes, LanePersonalize, nil)
}

// PersonalizeQoS is Personalize with an explicit service class: the tenant
// is created at (or an existing tenant re-classed to) qos, which selects
// its latency budget, quota rate and shed priority (see QoSOptions). QoS is
// a serving-time property — snapshots do not persist it, so a restored
// tenant reverts to Standard until its next PersonalizeQoS.
func (s *Server) PersonalizeQoS(classes []int, qos QoSClass) (*Personalization, bool, error) {
	return s.personalizeLane(classes, LanePersonalize, &qos)
}

// personalizeLane is the Personalize implementation: lane picks the pool
// admission lane (explicit personalizations vs predict-triggered misses —
// neither may starve the other; see Pool.DoLane), and qos, when non-nil,
// (re)classes the tenant on success.
func (s *Server) personalizeLane(classes []int, lane Lane, qos *QoSClass) (*Personalization, bool, error) {
	canon, key, err := s.Canonicalize(classes)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	s.stats.Requests++
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.CacheHits++
		p := el.Value.(*Personalization)
		s.mu.Unlock()
		if qos != nil {
			p.qos.Store(int32(*qos))
		}
		return p, true, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.stats.DedupJoins++
		s.mu.Unlock()
		<-c.done
		if qos != nil && c.err == nil {
			c.p.qos.Store(int32(*qos))
		}
		return c.p, false, c.err
	}
	if s.draining.Load() {
		// A draining shard serves what it holds (hot hits above, warm
		// promotions below) but starts nothing new: a fresh tenant must land
		// on the shard the cluster router is re-placing keys onto.
		if _, warm := s.warm[key]; !warm {
			s.mu.Unlock()
			return nil, false, ErrDraining
		}
	}
	call := &inflightCall{done: make(chan struct{})}
	s.inflight[key] = call
	s.stats.CacheMisses++
	s.mu.Unlock()

	// Run the pruning job on the bounded pool; the call blocks here, but
	// identical requests piggyback on call.done instead of queueing twice.
	// The job is tracked from submission until its write-behind snapshot is
	// scheduled, so Close cannot slip between a job finishing inline (pool
	// already closed) and its snapshot registration.
	s.pendingAdd(&s.pendingJobs)
	defer s.pendingDone(&s.pendingJobs)
	s.pool.DoLane(lane, func() {
		call.p, call.pruned, call.err = s.personalize(canon, key)
	})
	if qos != nil && call.err == nil {
		call.p.qos.Store(int32(*qos))
	}

	s.mu.Lock()
	inserted := false
	if call.err == nil {
		inserted = s.insertLocked(key, call.p)
		if call.pruned {
			s.stats.Personalizations++
		}
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(call.done)
	if call.err == nil {
		if !inserted {
			// Lost an insert race (e.g. a concurrent Restore): the cached
			// entry wins. This copy stays fully serveable for the joined
			// callers holding it; release flushes what they queued.
			call.p.release()
		}
		s.rebalance()
		if call.pruned && s.store != nil {
			s.scheduleSnapshot(call.p)
		}
	}
	return call.p, false, call.err
}

// insertLocked adds p to the hot tier and reports whether p was actually
// inserted. It never evicts — callers run rebalance (outside mu) after the
// insert to enforce the count/byte bounds, so demotion work stays off the
// lock. A key that is already cached (a Restore racing a concurrent
// personalization) keeps the existing entry and reports false; the caller
// owns the loser's cleanup.
func (s *Server) insertLocked(key string, p *Personalization) bool {
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		return false
	}
	s.entries[key] = s.lru.PushFront(p)
	s.hotBytes += p.size
	return true
}

// personalize is the cache-miss path, run on a pool worker. A tenant some
// tier still holds comes back through lookup. Any lookup failure — no tier
// holds the tenant, a bad warm or disk record, a failed index refresh —
// falls through to a fresh pruning run (which re-snapshots over a bad
// record): it costs the shortcut, never the request. The pruned tenant's
// delta is then admitted like any other; pruned reports which happened.
func (s *Server) personalize(classes []int, key string) (*Personalization, bool, error) {
	if p, err := s.lookup(key); err == nil {
		return p, false, nil
	}
	clone := s.build()
	s.base.CloneWeightsTo(clone)
	train := s.ds.MakeSplit("serve-train/"+key, classes, s.opts.TrainPerClass)
	test := s.ds.MakeSplit("serve-test/"+key, classes, s.opts.TestPerClass)
	rep := pruner.NewCRISP(s.opts.Prune).Prune(clone, train)
	// The clone dies with this call: the cache keeps the engine admit
	// compiles and this delta, nothing of the classifier or the training run
	// behind it.
	delta, err := checkpoint.EncodeModelDelta(s.base, clone)
	if err != nil {
		return nil, true, fmt.Errorf("serve: encoding {%s}: %w", key, err)
	}
	hdr := checkpoint.PersonalizationRecord{Key: key, Classes: classes, Accuracy: clone.Accuracy(test.X, test.Labels), Report: rep.Summary()}
	p, err := s.admit(&warmEntry{PersonalizationRecord: hdr, delta: delta})
	if err != nil {
		return nil, true, err
	}
	if s.store != nil {
		// Register the write-behind snapshot here, inside the job, so it
		// is counted before the job itself retires — Personalize balances
		// this via scheduleSnapshot's pendingDone.
		s.pendingAdd(&s.pendingSnaps)
	}
	return p, true, nil
}

// lookup resolves a tenant from the cheapest tier that holds it: a warm
// delta record promotes without touching disk or the pruner, a cold
// snapshot restores from disk. A bad warm record falls through to the
// store. It counts Promotions/PromoteErrors and RestoreHits/RestoreErrors
// whoever asked — a Personalize miss or a handoff — and on a miss returns
// ErrTenantNotFound, or the error that kept it from finding the tenant.
func (s *Server) lookup(key string) (*Personalization, error) {
	if we := s.takeWarm(key); we != nil {
		p, err := s.promoteWarm(we)
		s.tally(err, &s.stats.Promotions, &s.stats.PromoteErrors)
		if err == nil {
			return p, nil
		}
	}
	if s.store == nil {
		return nil, ErrTenantNotFound
	}
	if !s.store.has(key) {
		// Shards can share one snapshot store: a record another shard wrote
		// after this store opened is on disk but not in the in-memory index
		// yet. Re-reading the index is what lets a surviving shard adopt a
		// dead shard's tenants by restore.
		if err := s.store.refresh(); err != nil {
			return nil, fmt.Errorf("refreshing store: %w", err)
		}
		if !s.store.has(key) {
			return nil, ErrTenantNotFound
		}
	}
	p, err := s.restoreOne(key)
	s.tally(err, &s.stats.RestoreHits, &s.stats.RestoreErrors)
	return p, err
}

// tally counts a tier transition into ok or, when it failed, into failed.
func (s *Server) tally(err error, ok, failed *uint64) {
	s.mu.Lock()
	if err == nil {
		*ok++
	} else {
		*failed++
	}
	s.mu.Unlock()
}

// Predict personalizes (or fetches) the engine for the class set and runs
// a sparse forward pass over x ([B,C,H,W]), returning the predicted class
// ids. With batching enabled (Options.MaxBatch > 1) concurrent Predict
// calls against the same personalization coalesce into shared engine
// invocations — results are bit-identical to the solo path — and a full
// queue rejects with ErrOverloaded instead of queueing unboundedly.
func (s *Server) Predict(classes []int, x *tensor.Tensor) ([]int, error) {
	// Validate the input first: a malformed tensor must not trigger a
	// pruning job, let alone poison a shared batch.
	if err := s.checkInput(x); err != nil {
		return nil, err
	}
	// The hot path — an already-canonical class set with a cached engine —
	// skips Canonicalize's map/join allocations entirely; anything else
	// (unsorted sets, duplicates, cache misses) takes the full path. A miss
	// resolves on the predict pool lane, so a backlog of explicit
	// personalizations can never starve it of workers.
	p := s.predictFast(classes)
	if p == nil {
		var err error
		p, _, err = s.personalizeLane(classes, LanePredict, nil)
		if err != nil {
			return nil, err
		}
	}
	// Weighted shedding: charge the tenant's token bucket one token per
	// sample at its class rate. An over-quota tenant is only shed while the
	// server-wide predict queue is past the watermark — quotas shape load
	// under pressure, they do not cap an idle server — and the drop singles
	// out that tenant (ErrOverQuota) instead of 429ing everyone. Compliant
	// tenants still hit the per-queue hard bound (ErrOverloaded) last.
	class := p.QoS()
	var deadline time.Time
	if !s.qos.disabled {
		pol := s.qos.policy(class)
		if !p.bucket.take(float64(x.Shape[0]), pol.QuotaRPS, pol.QuotaBurst, time.Now()) &&
			int(s.counters.queued.Load()) >= s.qos.shedAt {
			s.counters.shed[class].Add(1)
			return nil, fmt.Errorf("%w (tenant {%s}, class %s)", ErrOverQuota, p.Key, class)
		}
		if pol.LatencyBudget > 0 {
			deadline = time.Now().Add(pol.LatencyBudget)
		}
	}
	if p.bat != nil {
		return p.bat.submit(x, class, deadline)
	}
	start := time.Now()
	preds := p.engine.Predict(x)
	s.counters.observe(len(preds), time.Since(start))
	return preds, nil
}

// predictFast returns the cached personalization for an already-canonical
// (strictly increasing, in-range) class set, or nil when the set is
// non-canonical or not cached — the callers' slow path handles both. It is
// allocation-free: the cache key is composed in a stack buffer and looked
// up without materializing a string, and the usual Personalize bookkeeping
// (Requests, CacheHits, LRU touch) still happens under mu.
func (s *Server) predictFast(classes []int) *Personalization {
	if len(classes) == 0 || !strictlyIncreasing(classes) || classes[0] < 0 || classes[len(classes)-1] >= s.ds.NumClasses {
		return nil
	}
	var buf [96]byte
	key := AppendKey(buf[:0], classes)
	s.mu.Lock()
	el, ok := s.entries[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	s.lru.MoveToFront(el)
	s.stats.Requests++
	s.stats.CacheHits++
	p := el.Value.(*Personalization)
	s.mu.Unlock()
	return p
}

// DrainBatches kicks every queued predict batch to flush immediately
// instead of letting the leaders wait out their linger, so lingering
// batches never delay a shutdown. The flushes run on the leader
// goroutines and may still be in flight when DrainBatches returns: the
// waiting Predict callers receive their results as usual, so a shutdown
// path that must see them out should wait on those callers (e.g.
// http.Server.Shutdown draining its handlers) after calling this.
// Requests queued after the drain batch normally.
func (s *Server) DrainBatches() {
	s.mu.Lock()
	bats := make([]*batcher, 0, s.lru.Len())
	for _, el := range s.entries {
		if b := el.Value.(*Personalization).bat; b != nil {
			bats = append(bats, b)
		}
	}
	s.mu.Unlock()
	for _, b := range bats {
		b.forceFlush()
	}
}

// checkInput validates a predict batch against the dataset shape before it
// can reach an engine — essential with batching, where one malformed tensor
// concatenated into a shared batch would fail every rider's request.
func (s *Server) checkInput(x *tensor.Tensor) error {
	if x == nil || len(x.Shape) != 4 || x.Shape[0] < 1 {
		return errors.New("serve: predict input must be [B,C,H,W] with B >= 1")
	}
	if x.Shape[1] != s.ds.Channels || x.Shape[2] != s.ds.H || x.Shape[3] != s.ds.W {
		return fmt.Errorf("serve: predict input shape %v, want [B,%d,%d,%d]",
			x.Shape, s.ds.Channels, s.ds.H, s.ds.W)
	}
	return nil
}

// PredictSamples synthesizes n fresh samples of the class set, predicts
// them in one batch, and returns predictions, labels and accuracy — the
// self-contained demo path behind crisp serve's /predict.
func (s *Server) PredictSamples(classes []int, n int) (preds, labels []int, acc float64, err error) {
	canon, key, err := s.Canonicalize(classes)
	if err != nil {
		return nil, nil, 0, err
	}
	if n <= 0 {
		n = 1
	}
	k := len(canon)
	per := (n + k - 1) / k
	split := s.ds.MakeSplit("serve-predict/"+key, canon, per)
	// The split is grouped per class (per rows each); pick round-robin
	// across the groups so every class of the set is represented.
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx = append(idx, (i%k)*per+i/k)
	}
	sub := split.Subset(idx)
	preds, err = s.Predict(canon, sub.X)
	if err != nil {
		return nil, nil, 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == sub.Labels[i] {
			correct++
		}
	}
	return preds, sub.Labels, float64(correct) / float64(len(preds)), nil
}

// Stats returns a snapshot of the server counters: the mu-guarded
// control-plane counters merged with the atomic predict-path counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.CachedEngines, st.HotBytes = s.lru.Len(), s.hotBytes
	st.WarmEntries, st.WarmBytes = s.warmLRU.Len(), s.warmBytes
	st.InFlight = len(s.inflight)
	s.mu.Unlock()
	st.Draining = s.draining.Load()
	st.PredictBatches = s.counters.batches.Load()
	st.SamplesPredicted = s.counters.samples.Load()
	st.Rejected = s.counters.rejected.Load()
	st.FlushSize = s.counters.flushSize.Load()
	st.FlushLinger = s.counters.flushLinger.Load()
	st.FlushForced = s.counters.flushForced.Load()
	st.FlushDeadline = s.counters.flushDeadline.Load()
	st.ShedByClass = make(map[string]uint64, NumQoSClasses)
	st.QueueWait = make(map[string]QueueWaitStats, NumQoSClasses)
	for c := QoSClass(0); c < NumQoSClasses; c++ {
		st.ShedByClass[c.String()] = s.counters.shed[c].Load()
		var qw QueueWaitStats
		for i := range qw.Hist {
			qw.Hist[i] = s.counters.qwHist[c][i].Load()
		}
		qw.SumNS = s.counters.qwNS[c].Load()
		qw.Count = s.counters.qwCount[c].Load()
		st.QueueWait[c.String()] = qw
	}
	st.PredictNS = s.counters.latencyNS.Load()
	st.QueueDepth = int(s.counters.queued.Load())
	for i := range st.BatchSizeHist {
		st.BatchSizeHist[i] = s.counters.hist[i].Load()
	}
	st.Top1Agreement = 1
	if st.AgreementSamples > 0 {
		st.Top1Agreement = float64(st.AgreementMatches) / float64(st.AgreementSamples)
	}
	if s.store != nil {
		st.ColdRecords = s.store.count()
	}
	return st
}

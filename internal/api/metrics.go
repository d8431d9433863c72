package api

import (
	"fmt"
	"io"

	"repro/internal/serve"
)

// WriteMetrics renders the serve.Stats counters in the Prometheus text
// exposition format, including the batch-size distribution as a proper
// cumulative histogram. It backs the shard's GET /metrics; the cluster
// router scrapes the same numbers via /healthz for its per-shard gauges.
func WriteMetrics(w io.Writer, st serve.Stats) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP crisp_serve_%s %s\n# TYPE crisp_serve_%s counter\ncrisp_serve_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP crisp_serve_%s %s\n# TYPE crisp_serve_%s gauge\ncrisp_serve_%s %d\n", name, help, name, name, v)
	}
	counter("requests_total", "Personalize calls, including cache hits.", st.Requests)
	counter("cache_hits_total", "Requests served from the engine cache.", st.CacheHits)
	counter("cache_misses_total", "Requests that started a pruning job.", st.CacheMisses)
	counter("dedup_joins_total", "Requests that joined an in-flight identical job.", st.DedupJoins)
	counter("evictions_total", "Engines dropped by the LRU policy.", st.Evictions)
	counter("personalizations_total", "Completed pruning jobs.", st.Personalizations)
	counter("predict_batches_total", "Engine invocations on the predict path.", st.PredictBatches)
	counter("samples_predicted_total", "Samples served by those invocations.", st.SamplesPredicted)
	counter("rejected_total", "Predicts dropped by admission control (429).", st.Rejected)
	counter("flush_size_total", "Batches flushed by reaching max-batch.", st.FlushSize)
	counter("flush_linger_total", "Batches flushed by the linger timer.", st.FlushLinger)
	counter("flush_forced_total", "Partial batches forced out by a drain.", st.FlushForced)
	counter("flush_deadline_total", "Batches flushed early by a rider's QoS latency budget.", st.FlushDeadline)
	counter("predict_ns_total", "Wall nanoseconds inside predict engine calls.", st.PredictNS)
	counter("snapshot_writes_total", "Personalization records written to disk.", st.SnapshotWrites)
	counter("snapshot_errors_total", "Failed snapshot writes.", st.SnapshotErrors)
	counter("restore_hits_total", "Engines rebuilt from disk instead of re-pruned.", st.RestoreHits)
	counter("restore_errors_total", "Snapshot records that failed to load.", st.RestoreErrors)
	counter("snapshots_quarantined_total", "Corrupt snapshot records moved aside and de-indexed.", st.SnapshotsQuarantined)
	counter("handoff_restores_total", "Tenants adopted from another shard via verified handoff.", st.HandoffRestores)
	counter("handoff_errors_total", "Handoff adoptions that failed (missing record or fingerprint mismatch).", st.HandoffErrors)
	counter("agreement_samples_total", "Held-out samples measured for int8-vs-float top-1 agreement.", st.AgreementSamples)
	counter("agreement_matches_total", "Measured samples whose int8 and float top-1 agreed.", st.AgreementMatches)
	counter("warm_hits_total", "Cache misses resolved by a warm delta record.", st.WarmHits)
	counter("promotions_total", "Warm records promoted back to hot engines.", st.Promotions)
	counter("demotions_total", "Hot engines demoted to warm delta records.", st.Demotions)
	counter("warm_evictions_total", "Warm records dropped to the cold tier for budget.", st.WarmEvictions)
	counter("promote_errors_total", "Warm records that failed promote-time verification.", st.PromoteErrors)
	seconds := func(name, help string, ns uint64) {
		fmt.Fprintf(w, "# HELP crisp_serve_%s %s\n# TYPE crisp_serve_%s counter\ncrisp_serve_%s %g\n", name, help, name, name, float64(ns)/1e9)
	}
	seconds("promote_seconds_total", "Wall seconds inside warm promotions; over promotions_total, the mean.", st.PromoteNanos)
	seconds("restore_seconds_total", "Wall seconds rebuilding engines from disk records; over restore_hits_total, the mean.", st.RestoreNanos)
	seconds("demote_seconds_total", "Wall seconds demoting hot engines to warm records; over demotions_total, the mean.", st.DemoteNanos)
	gauge("cached_engines", "Engines currently in the hot tier.", st.CachedEngines)
	gauge("in_flight", "Personalization jobs currently running.", st.InFlight)
	gauge("queue_depth", "Samples waiting in predict queues.", st.QueueDepth)
	gauge("workers", "Worker pool bound.", st.Workers)
	draining := 0
	if st.Draining {
		draining = 1
	}
	gauge("draining", "1 while this shard is draining (serving residents, accepting no new tenants).", draining)
	gauge64 := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP crisp_serve_%s %s\n# TYPE crisp_serve_%s gauge\ncrisp_serve_%s %d\n", name, help, name, name, v)
	}
	gauge64("memory_budget_bytes", "Configured resident tenant-state budget (0: single-level LRU).", st.MemoryBudgetBytes)
	gauge64("hot_bytes", "Resident bytes of hot compiled engines.", st.HotBytes)
	gauge64("warm_bytes", "Resident bytes of warm delta records.", st.WarmBytes)
	gauge("warm_entries", "Tenants currently held as warm delta records.", st.WarmEntries)
	gauge("cold_records", "Personalization records indexed in the snapshot store.", st.ColdRecords)

	// Precision as an info-style gauge (the mode is a label) and the
	// measured agreement ratio as a float gauge.
	fmt.Fprintf(w, "# HELP crisp_serve_precision Engine precision mode (1 for the active mode).\n# TYPE crisp_serve_precision gauge\ncrisp_serve_precision{mode=%q} 1\n", st.Precision)
	fmt.Fprintf(w, "# HELP crisp_serve_top1_agreement Measured int8-vs-float top-1 agreement ratio (1 when unmeasured).\n# TYPE crisp_serve_top1_agreement gauge\ncrisp_serve_top1_agreement %g\n", st.Top1Agreement)

	// QoS load shaping: whether the layer is on, per-class sheds, and the
	// per-class queue-wait distributions (scheduling delay between a predict
	// entering its batch queue and the flush that took it).
	qosEnabled := 0
	if st.QoSEnabled {
		qosEnabled = 1
	}
	gauge("qos_enabled", "1 while QoS load shaping (quotas, deadline flushes) is active.", qosEnabled)
	fmt.Fprintf(w, "# HELP crisp_serve_shed_total Predicts shed for exceeding the tenant's class quota under load (429).\n# TYPE crisp_serve_shed_total counter\n")
	for c := serve.QoSClass(0); c < serve.NumQoSClasses; c++ {
		fmt.Fprintf(w, "crisp_serve_shed_total{class=%q} %d\n", c.String(), st.ShedByClass[c.String()])
	}
	fmt.Fprintf(w, "# HELP crisp_serve_queue_wait_seconds Batch-queue wait per rider, by QoS class.\n# TYPE crisp_serve_queue_wait_seconds histogram\n")
	for c := serve.QoSClass(0); c < serve.NumQoSClasses; c++ {
		qw := st.QueueWait[c.String()]
		cum := uint64(0)
		for i, ms := range serve.QueueWaitBoundsMS {
			cum += qw.Hist[i]
			fmt.Fprintf(w, "crisp_serve_queue_wait_seconds_bucket{class=%q,le=\"%g\"} %d\n", c.String(), ms/1000, cum)
		}
		cum += qw.Hist[len(serve.QueueWaitBoundsMS)]
		fmt.Fprintf(w, "crisp_serve_queue_wait_seconds_bucket{class=%q,le=\"+Inf\"} %d\n", c.String(), cum)
		fmt.Fprintf(w, "crisp_serve_queue_wait_seconds_sum{class=%q} %g\n", c.String(), float64(qw.SumNS)/1e9)
		fmt.Fprintf(w, "crisp_serve_queue_wait_seconds_count{class=%q} %d\n", c.String(), qw.Count)
	}

	// Batch sizes as a cumulative histogram; Stats buckets are per-range.
	fmt.Fprintf(w, "# HELP crisp_serve_batch_size Samples per predict engine invocation.\n# TYPE crisp_serve_batch_size histogram\n")
	bounds := []string{"1", "2", "4", "8", "16", "32", "64", "+Inf"}
	cum := uint64(0)
	for i, le := range bounds {
		cum += st.BatchSizeHist[i]
		fmt.Fprintf(w, "crisp_serve_batch_size_bucket{le=%q} %d\n", le, cum)
	}
	fmt.Fprintf(w, "crisp_serve_batch_size_sum %d\n", st.SamplesPredicted)
	fmt.Fprintf(w, "crisp_serve_batch_size_count %d\n", st.PredictBatches)
}

// Package cluster scales CRISP serving horizontally: a consistent-hash
// router in front of N shard processes, each an ordinary crisp serve
// sharing one snapshot store.
//
// # Why sharding is cheap here
//
// CRISP's property — every tenant is a pruned-down view of the same
// universal model — makes tenant state small and portable: a tenant is
// fully described by its snapshot record (class set + model delta), and
// restoring that record on any shard reproduces the engine bit for bit
// (identical structural fingerprint, identical logits; on int8 servers the
// quant signature pins the codes too). So the cluster never copies live
// state between shards. Placement is just a hash ring, and every transfer
// is "write the record to the shared store, restore it over there" — the
// same code path a single server uses across restarts.
//
// # Pieces
//
//   - Ring: consistent hash (FNV-64a, virtual nodes) from canonical tenant
//     key ("1,3,17") to shard id. Membership changes move only the lost
//     shard's arcs.
//   - Membership: each shard is Up, Draining, Down, or Drained. A prober
//     polls every shard's /healthz; FailThreshold consecutive failures
//     take it off the ring, a later success puts it back (unless it
//     reports draining — a drained husk must not rejoin). The proxy path
//     short-circuits the threshold on connection errors.
//   - Router: proxies /personalize and /predict to the owner. Predicts are
//     idempotent and retry with exponential backoff after re-looking up the
//     owner; personalizations get one attempt and the client owns the
//     retry. While a tenant is mid-handoff the router answers 503 with
//     Retry-After. The router reads a body once into a recycled buffer
//     (413 past api.MaxBody; past api.MaxColdBody on /personalize, which
//     carries no inputs), takes the class set out of it with the
//     shards' own scanner (api.Route: same syntax rules on both tiers,
//     nothing built for the members it skips), makes the tenant key of it
//     with the shards' own key builder (serve.AppendKey) and forwards the
//     buffer as it stands.
//
// # Failure and exit paths
//
// Crash (kill -9, machine loss): the proxy's next connection error — or
// the prober's threshold — removes the shard; the ring re-places its
// tenants onto survivors, and each survivor restores a tenant from the
// shared snapshot store on first touch (serve's miss path refreshes the
// store index before ever considering a re-prune). Nothing is lost as long
// as the snapshots were flushed; the write-behind keeps that window to the
// last completed personalization.
//
// Graceful exit (POST /drain to the router): the shard is taken off the
// ring, drains its batches, flushes every resident tenant, and returns a
// manifest; the router hands each tenant to its new owner via POST
// /handoff, which restores from the shared store and verifies the
// fingerprint the old owner reported. Tenants are briefly "moving" (503 +
// Retry-After) but never lost and never re-pruned.
//
// # Failure modes
//
// What the router does for each failure shape it can observe, and what the
// failure costs. "Conclusive" failures prove the process is gone;
// "inconclusive" ones (a wedged worker, a flaky link) only count toward the
// circuit breaker, because evicting a shard on one blip would churn the
// ring for nothing.
//
//	failure observed          classification  router response                        cost to tenants
//	------------------------  --------------  -------------------------------------  ------------------------------
//	connection refused /      conclusive      markDown immediately; ring re-places;  one failed attempt, then
//	dial error                                retry lands on a survivor              restore-on-touch (no re-prune)
//	request deadline          inconclusive    count toward BreakerThreshold; retry   latency of the deadline; trips
//	exceeded (wedged shard)                   same owner until the breaker trips     breaker after N consecutive
//	connection reset          inconclusive    same as deadline — the request may     one retry round trip
//	mid-exchange                              have been processed; only predicts
//	                                          (idempotent) are retried
//	black-hole partition      inconclusive    per-request deadlines bound every      bounded by the QoS-derived
//	(no RST, just silence)    (until probes   attempt; breaker + failed probes       deadline, then failover
//	                          fail)           converge on Down within FailThreshold
//	probe failures            conclusive      off the ring at FailThreshold; lazy    none if snapshots flushed
//	(FailThreshold in a row)  after N         restore on survivors
//	corrupt snapshot record   disk fault      shard-side: checksum fails closed,     exactly one re-prune for that
//	(bit rot, torn write)                     record quarantined + de-indexed        tenant; peers' records kept
//	shard-side 503            draining        immediate re-probe, then retry —       one extra round trip
//	(draining owner)                          the ring sheds the drainer first
//	429 (over quota /         not a failure   relayed to the client unchanged —      client-owned backoff
//	shed load)                                retrying elsewhere would dodge the
//	                                          tenant's own quota bucket
//
// Per-request deadlines derive from the tenant's QoS class (learned from
// proxied /personalize bodies): deadline = latency budget × BudgetScale,
// clamped to [PredictFloor, PredictTimeout]. A gold tenant fails over in
// hundreds of milliseconds while a batch tenant tolerates a slow shard —
// the same budget arithmetic the shard's batcher runs, reused as the
// cluster's impatience.
//
// crisp router is the command; internal/cluster/e2e_test.go drives a
// router plus three real in-process shards, over a seeded flaky network,
// through kill, lazy failover, rejoin, and drain under concurrent load, and
// through TestClusterStormE2E's seeded storm — partition, record corruption,
// crash, fsync stalls, restart — which fails unless recovery is exact: zero
// lost tenants, one quarantine, one re-prune, and logits bit-equal to an
// oracle that prunes each tenant outside the fleet, from its own base.
package cluster

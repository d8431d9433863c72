package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// e2eRouterOptions is the router config the kill-rejoin and drain scenarios
// share. Its client runs over a seeded light fault schedule injecting latency
// and connection resets into /predict proxies. The assertions do not care —
// predicts are idempotent and absorbing exactly this is the router's job.
func e2eRouterOptions() Options {
	frt := fault.NewRoundTripper(nil, fault.NewInjector(443), fault.NetFaults{
		LatencyProb: 0.05, Latency: 30 * time.Millisecond,
		ResetProb: 0.03,
		Paths:     []string{"/predict"},
	})
	return Options{
		ProbeInterval:  50 * time.Millisecond,
		FailThreshold:  2,
		PredictRetries: 3,
		RetryBackoff:   20 * time.Millisecond,
		Client:         &http.Client{Transport: frt},
	}
}

// e2ePrune and e2eTrainPerClass are how every shard — and the oracle —
// personalizes a tenant.
var e2ePrune = pruner.Options{
	Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
	Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
}

const e2eTrainPerClass = 6

// e2eEnv is the cluster fixture: one tiny dataset and one lightly
// pre-trained universal model.
type e2eEnv struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

func newE2EEnv() *e2eEnv {
	cfg := data.Config{Name: "cluster-e2e", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 17}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(91)), cfg.NumClasses, 1)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 92)
	return &e2eEnv{ds: ds, build: build, base: base}
}

// e2eShared is what every shard (including restarted ones) builds its
// serve.Server from, exactly as a real fleet deploys the same universal
// checkpoint everywhere. e2eOracleEnv is a second build of it, pre-trained
// afresh, that only the oracle touches.
var (
	e2eShared    = sync.OnceValue(newE2EEnv)
	e2eOracleEnv = sync.OnceValue(newE2EEnv)
)

// probeX is the deterministic input batch a tenant's logits are compared on.
func (env *e2eEnv) probeX(classes []int) *tensor.Tensor {
	return env.ds.MakeSplit("cluster-probe-"+keyOf(classes), classes, 2).X
}

// oracle returns the logits and engine fingerprint a tenant must have, from a
// path that shares no state with the fleet: a private clone of the oracle
// fixture's base, pruned on the canonical class set's training split and
// compiled straight from that clone — no delta, tier, snapshot or HTTP. A
// CRISP tenant is a function of (universal model, class set), so this is
// what any shard must serve, however the tenant reached it.
func oracle(t *testing.T, classes []int) ([]float64, uint64) {
	t.Helper()
	env := e2eOracleEnv()
	canon := slices.Compact(slices.Sorted(slices.Values(classes)))
	clone := env.build()
	env.base.CloneWeightsTo(clone)
	pruner.NewCRISP(e2ePrune).Prune(clone, env.ds.MakeSplit("serve-train/"+keyOf(canon), canon, e2eTrainPerClass))
	eng, err := inference.New(clone, e2ePrune.BlockSize, e2ePrune.NM)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Logits(env.probeX(classes)).Data, eng.Fingerprint()
}

// realShard is one in-process crisp-serve: a real serve.Server behind the
// real api mux on a real TCP listener.
type realShard struct {
	id     string
	srv    *serve.Server
	ts     *httptest.Server
	addr   string
	killed atomic.Bool
}

// newRealShard starts a shard sharing snapshot directory dir through fsys
// (nil: the real disk). A non-empty addr rebinds that address — restarting
// a dead shard's process.
func newRealShard(t *testing.T, id, dir, addr string, fsys fault.FS) *realShard {
	t.Helper()
	env := e2eShared()
	srv, err := serve.NewServer(env.build, env.base, env.ds, serve.Options{
		Workers:       2,
		SnapshotDir:   dir,
		FS:            fsys,
		Prune:         e2ePrune,
		TrainPerClass: e2eTrainPerClass,
		TestPerClass:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sh := &realShard{id: id, srv: srv}
	mux := api.NewMux(srv, env.ds, api.Config{ShardID: id})
	if addr == "" {
		sh.ts = httptest.NewServer(mux)
	} else {
		sh.ts = &httptest.Server{Listener: relisten(t, addr), Config: &http.Server{Handler: mux}}
		sh.ts.Start()
	}
	sh.addr = sh.ts.Listener.Addr().String()
	t.Cleanup(sh.kill)
	return sh
}

// kill drops the shard's HTTP presence without touching its serve.Server —
// the process is "gone" as far as the cluster can tell.
func (sh *realShard) kill() {
	if sh.killed.CompareAndSwap(false, true) {
		sh.ts.CloseClientConnections()
		sh.ts.Close()
	}
}

// startFleet starts shards s1..s3 sharing one snapshot directory through
// fsys, a router with opts over them, and a front server on its mux.
func startFleet(t *testing.T, opts Options, fsys fault.FS) (rt *Router, shards map[string]*realShard, dir, frontURL string) {
	t.Helper()
	dir = t.TempDir()
	shards = map[string]*realShard{}
	rt = NewRouter(opts)
	for _, id := range []string{"s1", "s2", "s3"} {
		shards[id] = newRealShard(t, id, dir, "", fsys)
		rt.AddShard(id, shards[id].addr)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Mux())
	t.Cleanup(front.Close)
	return rt, shards, dir, front.URL
}

// logitsOn asserts the tenant is resident on the shard and returns its
// logits over the probe batch.
func logitsOn(t *testing.T, sh *realShard, classes []int) ([]float64, uint64) {
	t.Helper()
	p, cached, err := sh.srv.Personalize(classes)
	if err != nil {
		t.Fatalf("shard %s does not serve %v: %v", sh.id, classes, err)
	}
	if !cached {
		t.Fatalf("shard %s re-personalized %v instead of serving its resident engine", sh.id, classes)
	}
	return append([]float64(nil), p.Engine().Logits(e2eShared().probeX(classes)).Data...), p.Engine().Fingerprint()
}

type personalizeReply struct {
	Key         string `json:"key"`
	Fingerprint uint64 `json:"fingerprint"`
}

// personalizeVia personalizes through the router; a non-empty qos classes
// the tenant, which also teaches the router the tenant's predict deadline.
func personalizeVia(t *testing.T, frontURL string, classes []int, qos string) personalizeReply {
	t.Helper()
	req := map[string]any{"classes": classes}
	if qos != "" {
		req["qos"] = qos
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(frontURL+"/personalize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("personalize %v: status %d", classes, resp.StatusCode)
	}
	var pr personalizeReply
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Fingerprint == 0 {
		t.Fatalf("personalize %v returned no fingerprint", classes)
	}
	return pr
}

func predictVia(frontURL string, classes []int) (int, error) {
	body, _ := json.Marshal(map[string]any{"classes": classes, "samples": 2})
	resp, err := http.Post(frontURL+"/predict", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&struct{}{})
	return resp.StatusCode, nil
}

func sumPersonalizations(shards map[string]*realShard, skip string) uint64 {
	var n uint64
	for id, sh := range shards {
		if id == skip {
			continue
		}
		n += sh.srv.Stats().Personalizations
	}
	return n
}

// busiest returns the shard owning the most tenants, and how many it owns.
func busiest(owners map[string]string) (id string, n int) {
	count := map[string]int{}
	for _, o := range owners {
		count[o]++
		if count[o] > n {
			id, n = o, count[o]
		}
	}
	return id, n
}

// awaitServed waits until the router answers a predict for classes with 200.
func awaitServed(t *testing.T, frontURL string, classes []int, d time.Duration, what string) {
	t.Helper()
	waitFor(t, d, fmt.Sprintf("tenant %v %s", classes, what), func() bool {
		code, err := predictVia(frontURL, classes)
		return err == nil && code == http.StatusOK
	})
}

// TestClusterKillRejoinE2E is the one scenario with predicts in flight
// across a kill: a router over three real shards sharing one snapshot
// store; one shard is killed under concurrent predict load, its tenants
// recover on survivors by restore (zero lost, zero re-pruned, bit-identical
// logits), and a fresh process rejoining on the same address is re-admitted
// by the prober and serves its old tenants from the store.
func TestClusterKillRejoinE2E(t *testing.T) {
	rt, shards, dir, frontURL := startFleet(t, e2eRouterOptions(), nil)

	tenants := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}
	fps := map[string]uint64{}
	owners := map[string]string{}
	for _, classes := range tenants {
		key := keyOf(classes)
		pr := personalizeVia(t, frontURL, classes, "")
		if pr.Key != key {
			t.Fatalf("router and shard disagree on key: %q vs %q", pr.Key, key)
		}
		fps[key] = pr.Fingerprint
		owner, ok := rt.LookupShard(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		owners[key] = owner
	}
	distinct := map[string]bool{}
	for _, o := range owners {
		distinct[o] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("placement degenerate, all tenants on one shard: %v", owners)
	}

	// Baseline logits from the owning engines, and durability before the
	// kill: flush every shard so each tenant's record is in the shared
	// store (routine write-behind does this too; the flush just removes
	// timing from the test).
	baseline := map[string][]float64{}
	for _, classes := range tenants {
		key := keyOf(classes)
		logits, fp := logitsOn(t, shards[owners[key]], classes)
		if fp != fps[key] {
			t.Fatalf("HTTP fingerprint %016x != engine fingerprint %016x for %q", fps[key], fp, key)
		}
		baseline[key] = logits
	}
	for _, sh := range shards {
		if _, err := sh.srv.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the shard owning the most tenants, so the failover actually
	// moves state.
	victimID, victimTenants := busiest(owners)
	preKillPersonalizations := sumPersonalizations(shards, victimID)

	// Concurrent load across every tenant, running through kill, recovery,
	// and rejoin. Transient non-200s are expected while the ring converges;
	// lost tenants are not — the post-kill barrier below insists on 200s.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadOK atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if code, err := predictVia(frontURL, tenants[(i+n)%len(tenants)]); err == nil && code == http.StatusOK {
					loadOK.Add(1)
				}
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	shards[victimID].kill()

	// Zero lost tenants: every tenant answers 200 through the router once
	// the ring sheds the corpse and survivors restore from the store.
	for _, classes := range tenants {
		awaitServed(t, frontURL, classes, 2*time.Minute, "lost after killing "+victimID)
	}
	if rt.ring.Has(victimID) {
		t.Fatal("dead shard still on the ring")
	}

	// Bit-identical recovery, not re-pruning: each tenant's new owner
	// serves an engine with the original fingerprint and logits, and no
	// survivor ran a pruning job.
	restores := uint64(0)
	for _, classes := range tenants {
		key := keyOf(classes)
		newOwner, ok := rt.LookupShard(key)
		if !ok || newOwner == victimID {
			t.Fatalf("tenant %q owned by %q after kill", key, newOwner)
		}
		if logits, fp := logitsOn(t, shards[newOwner], classes); fp != fps[key] || !slices.Equal(logits, baseline[key]) {
			t.Fatalf("tenant %q drifted after failover: engine %016x vs %016x", key, fp, fps[key])
		}
	}
	if got := sumPersonalizations(shards, victimID); got != preKillPersonalizations {
		t.Fatalf("failover re-pruned: survivor personalizations %d -> %d", preKillPersonalizations, got)
	}
	for id, sh := range shards {
		if id != victimID {
			restores += sh.srv.Stats().RestoreHits
		}
	}
	if restores < uint64(victimTenants) {
		t.Fatalf("expected >= %d restores on survivors, saw %d", victimTenants, restores)
	}

	// Rejoin: a fresh process on the dead shard's address. The prober
	// readmits it, ring placement snaps back to the original (consistent
	// hashing), and it serves its old tenants from the store — zero
	// pruning jobs on the rebooted shard.
	reborn := newRealShard(t, victimID, dir, shards[victimID].addr, nil)
	shards[victimID] = reborn
	waitFor(t, 30*time.Second, "prober never readmitted the rejoined shard", func() bool {
		return rt.ring.Has(victimID)
	})
	for _, classes := range tenants {
		key := keyOf(classes)
		if owner, _ := rt.LookupShard(key); owner != owners[key] {
			t.Fatalf("rejoin did not restore placement of %q: %q vs %q", key, owner, owners[key])
		}
		awaitServed(t, frontURL, classes, 2*time.Minute, "unserved after rejoin")
	}
	for _, classes := range tenants {
		key := keyOf(classes)
		if owners[key] != victimID {
			continue
		}
		if logits, fp := logitsOn(t, reborn, classes); fp != fps[key] || !slices.Equal(logits, baseline[key]) {
			t.Fatalf("rejoined tenant %q drifted: engine %016x vs %016x", key, fp, fps[key])
		}
	}
	if st := reborn.srv.Stats(); st.Personalizations != 0 {
		t.Fatalf("rejoined shard re-pruned %d tenants instead of restoring", st.Personalizations)
	}
	if loadOK.Load() == 0 {
		t.Fatal("concurrent load never succeeded")
	}
}

// TestClusterDrainHandoffE2E: a graceful exit through the router's drain
// orchestration — manifest handoffs, verified restores on the new owners,
// no re-pruning, and the drained shard refuses new tenants while the ring
// sends them to survivors.
func TestClusterDrainHandoffE2E(t *testing.T) {
	rt, shards, _, frontURL := startFleet(t, e2eRouterOptions(), nil)

	tenants := [][]int{{0, 1}, {2, 3}, {4, 5}, {1, 4}}
	fps := map[string]uint64{}
	owners := map[string]string{}
	baseline := map[string][]float64{}
	for _, classes := range tenants {
		key := keyOf(classes)
		fps[key] = personalizeVia(t, frontURL, classes, "").Fingerprint
		owners[key], _ = rt.LookupShard(key)
		logits, _ := logitsOn(t, shards[owners[key]], classes)
		baseline[key] = logits
	}

	victimID, victimTenants := busiest(owners)
	prePersonalizations := sumPersonalizations(shards, "")

	body, _ := json.Marshal(map[string]string{"shard": victimID})
	resp, err := http.Post(frontURL+"/drain", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Moved  int      `json:"moved"`
		Errors []string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dr.Moved < victimTenants || len(dr.Errors) != 0 {
		t.Fatalf("drain: status %d moved %d (want >= %d) errors %v", resp.StatusCode, dr.Moved, victimTenants, dr.Errors)
	}
	if !shards[victimID].srv.Draining() {
		t.Fatal("drained shard's server is not draining")
	}
	if rt.ring.Has(victimID) {
		t.Fatal("drained shard still on the ring")
	}

	// Every tenant keeps serving, with verified bit-identical engines on
	// the new owners — handoff restores, not pruning runs.
	for _, classes := range tenants {
		key := keyOf(classes)
		if code, err := predictVia(frontURL, classes); err != nil || code != http.StatusOK {
			t.Fatalf("tenant %q after drain: code %d err %v", key, code, err)
		}
		newOwner, _ := rt.LookupShard(key)
		if newOwner == victimID {
			t.Fatalf("tenant %q still placed on drained shard", key)
		}
		if logits, fp := logitsOn(t, shards[newOwner], classes); fp != fps[key] || !slices.Equal(logits, baseline[key]) {
			t.Fatalf("tenant %q drifted across drain: engine %016x vs %016x", key, fp, fps[key])
		}
	}
	if got := sumPersonalizations(shards, ""); got != prePersonalizations {
		t.Fatalf("drain re-pruned: personalizations %d -> %d", prePersonalizations, got)
	}
	handoffs := uint64(0)
	for id, sh := range shards {
		if id != victimID {
			handoffs += sh.srv.Stats().HandoffRestores
		}
	}
	if handoffs < uint64(victimTenants) {
		t.Fatalf("expected >= %d handoff restores, saw %d", victimTenants, handoffs)
	}

	// New tenants keep arriving and land on survivors.
	pr := personalizeVia(t, frontURL, []int{0, 3, 5}, "")
	if owner, _ := rt.LookupShard(pr.Key); owner == victimID {
		t.Fatal("new tenant placed on drained shard")
	}

	// The router reports the drained state.
	resp, err = http.Get(frontURL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Shards []ShardHealth `json:"shards"`
		Ring   []string      `json:"ring"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ring.Ring) != 2 {
		t.Fatalf("ring %v, want 2 survivors", ring.Ring)
	}
	for _, sh := range ring.Shards {
		if sh.ID == victimID && (sh.State != "drained" || sh.OnRing) {
			t.Fatalf("drained shard reported as %+v", sh)
		}
	}
}

// TestClusterStormE2E replays seeded Zipf traffic, one request at a time,
// through a router over three real shards while a request-indexed schedule
// tears at the fleet: at 25 % a partition black-holes s1 and fsyncs stall;
// at 40 % a tenant's snapshot record is bit-flipped on disk and its owner
// killed; at 55 % the partition heals; at 70 % survivors flush and the dead
// shard restarts on its old address; at 80 % the disk calms. Recovery must
// be exact: zero lost tenants, exactly one quarantine and one re-prune (the
// corrupted record's), at least 90 % of the replay answered, and every
// tenant's logits bit-equal to the oracle's — a baseline the fleet never
// touched. Everything derives from the seed, so a failure replays exactly.
func TestClusterStormE2E(t *testing.T) {
	const seed, nTenants, nRequests, minOK = 7, 8, 400, 0.90
	ffs := fault.NewFS(fault.OS{}, fault.NewInjector(seed+4), fault.DiskFaults{
		SyncDelay: 2 * time.Millisecond,
		Match:     func(name string) bool { return strings.HasSuffix(name, ".ckpt") },
	})
	ffs.SetEnabled(false)
	frt := fault.NewRoundTripper(nil, fault.NewInjector(seed+5), fault.NetFaults{
		LatencyProb: 0.05, Latency: 20 * time.Millisecond,
		ResetProb: 0.02,
		Paths:     []string{"/predict"},
	})
	rt, shards, dir, frontURL := startFleet(t, Options{
		ProbeInterval:    100 * time.Millisecond,
		FailThreshold:    2,
		PredictRetries:   3,
		RetryBackoff:     25 * time.Millisecond,
		PredictTimeout:   2 * time.Second,
		PredictFloor:     150 * time.Millisecond,
		BudgetScale:      25,
		BreakerThreshold: 3,
		Client:           &http.Client{Transport: frt},
		ProbeClient:      &http.Client{Timeout: time.Second, Transport: frt},
	}, ffs)

	// Distinct class pairs in popularity order: index 0 is the Zipf head.
	rng := rand.New(rand.NewSource(seed + 3))
	var tenants [][]int
	for seen := map[string]bool{}; len(tenants) < nTenants; {
		classes := []int{rng.Intn(6), rng.Intn(6)}
		if key := keyOf(classes); classes[0] != classes[1] && !seen[key] {
			seen[key] = true
			tenants = append(tenants, classes)
		}
	}

	// Prewarm through the router, teaching it each tenant's QoS class, then
	// flush so every record is durable before the storm: a pruning run after
	// this point is a recovery, and only the corrupted record may cost one.
	for i, classes := range tenants {
		personalizeVia(t, frontURL, classes, []string{"standard", "gold", "batch"}[i%3])
	}
	for _, sh := range shards {
		if _, err := sh.srv.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	prewarmed := sumPersonalizations(shards, "")
	tally := func() (quarantines, rePrunes uint64) {
		for _, sh := range shards {
			quarantines += sh.srv.Stats().SnapshotsQuarantined
		}
		return quarantines, sumPersonalizations(shards, "") - prewarmed
	}

	var timeline []string
	ok, corrupted := 0, ""
	t.Cleanup(func() { // the storm's record; go test prints it with -v or on failure
		q, r := tally()
		t.Logf("storm seed %d: %d/%d ok, corrupted %q, %d quarantine(s), %d re-prune(s), %d black-holed, %d fsync stall(s)\n%s",
			seed, ok, nRequests, corrupted, q, r, frt.Blackholed.Load(), ffs.Stats().SyncStalls, strings.Join(timeline, "\n"))
	})
	event := func(at int, format string, args ...any) {
		timeline = append(timeline, fmt.Sprintf("@%d ", at)+fmt.Sprintf(format, args...))
	}

	partitioned := shards["s1"].addr
	var victim *realShard
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed+6)), 1.2, 1, nTenants-1)
	for i := 0; i < nRequests; i++ {
		switch i {
		case nRequests * 25 / 100:
			ffs.SetEnabled(true)
			frt.Partition(partitioned, true)
			event(i, "partition: s1 black-holed, fsync stalls on")
		case nRequests * 40 / 100:
			var owner string
			corrupted, owner = corruptRecord(t, rt, dir, tenants, "s1")
			victim = shards[owner]
			victim.kill()
			delete(shards, owner)
			prewarmed -= victim.srv.Stats().Personalizations // it leaves the sum; what it re-pruned stays counted
			event(i, "corrupt+kill: record of %q bit-flipped, owner %s killed", corrupted, owner)
		case nRequests * 55 / 100:
			frt.Partition(partitioned, false)
			event(i, "heal: s1 partition healed")
		case nRequests * 70 / 100:
			// Survivors flush first, so the corrupted tenant's re-pruned
			// record is durable before the restarted shard can be asked for it.
			for _, sh := range shards {
				if _, err := sh.srv.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			// A fresh process: every pruning run it does is a recovery.
			shards[victim.id] = newRealShard(t, victim.id, dir, victim.addr, ffs)
			event(i, "restart: %s on %s", victim.id, victim.addr)
		case nRequests * 80 / 100:
			ffs.SetEnabled(false)
			event(i, "calm: fsync stalls off")
		}
		if code, err := predictVia(frontURL, tenants[zipf.Uint64()]); err == nil && code == http.StatusOK {
			ok++
		}
	}

	waitFor(t, 15*time.Second, "the prober never readmitted every shard after the storm", func() bool {
		return rt.ring.Has("s1") && rt.ring.Has("s2") && rt.ring.Has("s3")
	})
	for _, classes := range tenants {
		awaitServed(t, frontURL, classes, 10*time.Second, "lost in the storm")
		key := keyOf(classes)
		owner, found := rt.LookupShard(key)
		if !found {
			t.Fatalf("tenant %q has no owner after the storm", key)
		}
		got, fp := logitsOn(t, shards[owner], classes)
		want, wantFP := oracle(t, classes)
		if fp != wantFP || !slices.Equal(got, want) {
			t.Errorf("tenant %q on %s: engine %016x and its logits differ from the oracle's %016x", key, owner, fp, wantFP)
		}
	}
	if q, r := tally(); q != 1 || r != 1 {
		t.Errorf("%d quarantine(s) and %d re-prune(s), want exactly 1 each (the corrupted record %q)", q, r, corrupted)
	}
	if avail := float64(ok) / nRequests; avail < minOK {
		t.Errorf("availability %.3f under the %.2f floor", avail, minOK)
	}
	if frt.Blackholed.Load() == 0 || ffs.Stats().SyncStalls == 0 {
		t.Error("the storm never landed: no request black-holed or no fsync stalled")
	}
}

// corruptRecord bit-flips the middle of the first tenant's snapshot record
// whose owner is not the partitioned shard (the two faults stay independent)
// and returns the tenant's key and owner — the shard the schedule kills, so
// the next access reads the record cold.
func corruptRecord(t *testing.T, rt *Router, dir string, tenants [][]int, partitioned string) (string, string) {
	t.Helper()
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, classes := range tenants {
		key := keyOf(classes)
		owner, found := rt.LookupShard(key)
		name, indexed := idx[key]
		if !found || !indexed || owner == partitioned {
			continue
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return key, owner
	}
	t.Fatal("no corruptible tenant: every record is owned by the partitioned shard")
	return "", ""
}

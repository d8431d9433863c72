package cluster

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// e2eRouterOptions is the router config both scenarios share. Setting
// CRISP_E2E_FAULTS (the CI e2e job does) additionally runs the whole suite
// over a flaky network: a seeded light fault schedule injecting latency and
// connection resets into /predict proxies. The assertions do not change —
// predicts are idempotent and absorbing exactly this is the router's job.
func e2eRouterOptions() Options {
	opts := Options{
		ProbeInterval:  50 * time.Millisecond,
		FailThreshold:  2,
		PredictRetries: 3,
		RetryBackoff:   20 * time.Millisecond,
	}
	if os.Getenv("CRISP_E2E_FAULTS") != "" {
		frt := fault.NewRoundTripper(nil, fault.NewInjector(443), fault.NetFaults{
			LatencyProb: 0.05, Latency: 30 * time.Millisecond,
			ResetProb: 0.03,
			Paths:     []string{"/predict"},
		})
		opts.Client = &http.Client{Transport: frt}
	}
	return opts
}

// e2eEnv is the shared cluster fixture: one tiny dataset and one lightly
// pre-trained universal model; every shard (including restarted ones)
// builds its serve.Server from these, exactly as a real fleet would deploy
// the same universal checkpoint everywhere.
type e2eEnv struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

var e2eShared = sync.OnceValue(func() *e2eEnv {
	cfg := data.Config{Name: "cluster-e2e", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 17}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(91)), cfg.NumClasses, 1)
	}
	base := build()
	opt := nn.NewSGD(0.05, 0.9, 4e-5)
	pruner.Finetune(base, ds.MakeSplit("pretrain", []int{0, 1, 2, 3, 4, 5}, 8), 2, 16, opt, rand.New(rand.NewSource(92)))
	return &e2eEnv{ds: ds, build: build, base: base}
})

// realShard is one in-process crisp-serve: a real serve.Server behind the
// real api mux on a real TCP listener.
type realShard struct {
	id     string
	srv    *serve.Server
	ts     *httptest.Server
	addr   string
	killed atomic.Bool
}

// newRealShard starts a shard sharing snapshot directory dir. A non-empty
// addr rebinds that address — restarting a dead shard's process.
func newRealShard(t *testing.T, id, dir, addr string) *realShard {
	t.Helper()
	env := e2eShared()
	srv, err := serve.NewServer(env.build, env.base, env.ds, serve.Options{
		Workers:     2,
		SnapshotDir: dir,
		Prune: pruner.Options{
			Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
		},
		TrainPerClass: 6,
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

// probeX is the deterministic input batch used for bit-identical logit
// comparisons of one tenant across shards.
func probeX(classes []int) *tensor.Tensor {
	env := e2eShared()
	return env.ds.MakeSplit("cluster-probe-"+keyOf(classes), classes, 2).X
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
	return append([]float64(nil), p.Engine().Logits(probeX(classes)).Data...), p.Engine().Fingerprint()
}

type personalizeReply struct {
	Key         string `json:"key"`
	Cached      bool   `json:"cached"`
	Fingerprint uint64 `json:"fingerprint"`
}

func personalizeVia(t *testing.T, frontURL string, classes []int) personalizeReply {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"classes": classes})
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

// TestClusterKillRejoinE2E is the tentpole scenario: a router over three
// real shards sharing one snapshot store; one shard is killed under
// concurrent predict load, its tenants recover on survivors by restore
// (zero lost, zero re-pruned, bit-identical logits), and a fresh process
// rejoining on the same address is re-admitted by the prober and serves
// its old tenants from the store.
func TestClusterKillRejoinE2E(t *testing.T) {
	dir := t.TempDir()
	shards := map[string]*realShard{}
	rt := NewRouter(e2eRouterOptions())
	for _, id := range []string{"s1", "s2", "s3"} {
		sh := newRealShard(t, id, dir, "")
		shards[id] = sh
		rt.AddShard(id, sh.addr)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Mux())
	t.Cleanup(front.Close)

	tenants := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}
	fps := map[string]uint64{}
	owners := map[string]string{}
	for _, classes := range tenants {
		key := keyOf(classes)
		pr := personalizeVia(t, front.URL, classes)
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

	// Pick the victim owning the most tenants, so the failover actually
	// moves state.
	victimID, victimTenants := "", 0
	for id := range shards {
		n := 0
		for _, o := range owners {
			if o == id {
				n++
			}
		}
		if n > victimTenants {
			victimID, victimTenants = id, n
		}
	}
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
				if code, err := predictVia(front.URL, tenants[(i+n)%len(tenants)]); err == nil && code == http.StatusOK {
					loadOK.Add(1)
				}
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	shards[victimID].kill()

	// Zero lost tenants: every tenant answers 200 through the router once
	// the ring sheds the corpse and survivors restore from the store.
	deadline := time.Now().Add(2 * time.Minute)
	for _, classes := range tenants {
		for {
			code, err := predictVia(front.URL, classes)
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %v lost after killing %s (last code %d err %v)", classes, victimID, code, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
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
		logits, fp := logitsOn(t, shards[newOwner], classes)
		if fp != fps[key] {
			t.Fatalf("tenant %q fingerprint drifted after failover: %016x vs %016x", key, fp, fps[key])
		}
		for i := range logits {
			if logits[i] != baseline[key][i] {
				t.Fatalf("tenant %q logit %d drifted after failover: %v vs %v", key, i, logits[i], baseline[key][i])
			}
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
	reborn := newRealShard(t, victimID, dir, shards[victimID].addr)
	shards[victimID] = reborn
	waitFor(t, 30*time.Second, "prober never readmitted the rejoined shard", func() bool {
		return rt.ring.Has(victimID)
	})
	for _, classes := range tenants {
		key := keyOf(classes)
		if owner, _ := rt.LookupShard(key); owner != owners[key] {
			t.Fatalf("rejoin did not restore placement of %q: %q vs %q", key, owner, owners[key])
		}
		for {
			code, err := predictVia(front.URL, classes)
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %v unserved after rejoin (code %d err %v)", classes, code, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, classes := range tenants {
		key := keyOf(classes)
		if owners[key] != victimID {
			continue
		}
		logits, fp := logitsOn(t, reborn, classes)
		if fp != fps[key] {
			t.Fatalf("rejoined tenant %q fingerprint drifted: %016x vs %016x", key, fp, fps[key])
		}
		for i := range logits {
			if logits[i] != baseline[key][i] {
				t.Fatalf("rejoined tenant %q logit %d drifted", key, i)
			}
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
	dir := t.TempDir()
	shards := map[string]*realShard{}
	rt := NewRouter(e2eRouterOptions())
	for _, id := range []string{"s1", "s2", "s3"} {
		sh := newRealShard(t, id, dir, "")
		shards[id] = sh
		rt.AddShard(id, sh.addr)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Mux())
	t.Cleanup(front.Close)

	tenants := [][]int{{0, 1}, {2, 3}, {4, 5}, {1, 4}}
	fps := map[string]uint64{}
	owners := map[string]string{}
	baseline := map[string][]float64{}
	for _, classes := range tenants {
		key := keyOf(classes)
		fps[key] = personalizeVia(t, front.URL, classes).Fingerprint
		owners[key], _ = rt.LookupShard(key)
		logits, _ := logitsOn(t, shards[owners[key]], classes)
		baseline[key] = logits
	}

	victimID := ""
	for _, o := range owners {
		victimID = o
		break
	}
	victimTenants := 0
	for _, o := range owners {
		if o == victimID {
			victimTenants++
		}
	}
	prePersonalizations := sumPersonalizations(shards, "")

	body, _ := json.Marshal(map[string]string{"shard": victimID})
	resp, err := http.Post(front.URL+"/drain", "application/json", strings.NewReader(string(body)))
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
		if code, err := predictVia(front.URL, classes); err != nil || code != http.StatusOK {
			t.Fatalf("tenant %q after drain: code %d err %v", key, code, err)
		}
		newOwner, _ := rt.LookupShard(key)
		if newOwner == victimID {
			t.Fatalf("tenant %q still placed on drained shard", key)
		}
		logits, fp := logitsOn(t, shards[newOwner], classes)
		if fp != fps[key] {
			t.Fatalf("tenant %q fingerprint drifted across drain: %016x vs %016x", key, fp, fps[key])
		}
		for i := range logits {
			if logits[i] != baseline[key][i] {
				t.Fatalf("tenant %q logit %d drifted across drain", key, i)
			}
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
	pr := personalizeVia(t, front.URL, []int{0, 3, 5})
	if owner, _ := rt.LookupShard(pr.Key); owner == victimID {
		t.Fatal("new tenant placed on drained shard")
	}

	// The router reports the drained state.
	resp, err = http.Get(front.URL + "/ring")
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

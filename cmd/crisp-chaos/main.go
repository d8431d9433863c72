// Command crisp-chaos replays deterministic Zipf traffic against an
// in-process CRISP cluster — a router fronting real shards on real TCP
// listeners, sharing one snapshot store — while a seeded fault schedule
// tears at it: a network partition black-holes one shard, a tenant's
// on-disk snapshot record is bit-flipped, the shard owning it is killed,
// fsyncs stall, and the dead shard later restarts on its old address. It is
// the robustness half of CI: the chaos job runs it at a pinned seed and
// fails the build if recovery is anything less than exact.
//
// The run asserts, after the storm heals:
//
//   - Zero lost tenants: every prewarmed tenant still answers /predict
//     through the router.
//   - Zero unexpected re-prunes: failovers recover tenants by snapshot
//     restore; only the deliberately corrupted record may cost a pruning
//     run (quarantine → exactly one re-prune, never a crash or a loop).
//   - Exactly one quarantine: the corrupted record was moved aside and
//     de-indexed, not served and not retried forever.
//   - Bit-identical logits: every tenant's post-chaos engine produces the
//     same logits as its prewarm baseline — restores are exact, and even
//     the re-pruned tenant reproduces bit-for-bit because pruning is
//     deterministic per key.
//   - An availability floor (-min-ok) over the replayed window: the storm
//     may cost requests while failures are being detected, but the router's
//     deadlines, breaker and failover must keep the fraction bounded.
//
// Everything is derived from -seed: tenant class sets, QoS assignment, the
// Zipf draw, the fault schedule and the injected faults themselves. Same
// seed, same storm, same verdict.
//
// Usage:
//
//	crisp-chaos -seed 7 -shards 3 -tenants 8 -requests 400 -out chaos.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-chaos: ")
	var (
		seed      = flag.Int64("seed", 7, "chaos seed: tenants, Zipf draw, fault schedule and injected faults all derive from it")
		nShards   = flag.Int("shards", 3, "shards in the fleet (>= 3 so a partition plus a crash leaves a survivor)")
		nTenants  = flag.Int("tenants", 8, "prewarmed tenants")
		nRequests = flag.Int("requests", 400, "replayed predict requests")
		zipfS     = flag.Float64("zipf-s", 1.2, "Zipf skew of tenant popularity (> 1)")
		minOK     = flag.Float64("min-ok", 0.90, "minimum fraction of replayed predicts that must return 200")
		out       = flag.String("out", "", "write the JSON chaos report here (default stdout)")
	)
	flag.Parse()
	if *nShards < 3 {
		log.Fatal("-shards must be >= 3: the schedule partitions one shard and kills another")
	}
	if *nTenants < 2 || *nRequests < 20 {
		log.Fatal("need at least 2 tenants and 20 requests for the schedule to fit")
	}

	rep, err := run(*seed, *nShards, *nTenants, *nRequests, *zipfS, *minOK)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeReport(*out, rep); err != nil {
		log.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			log.Printf("VIOLATION: %s", v)
		}
		os.Exit(1)
	}
	log.Printf("clean: %d/%d ok (%.3f), %d quarantine, %d re-prune, all logits bit-identical",
		rep.OK, rep.Requests, rep.Availability, rep.Quarantines, rep.RePrunes)
}

// event is one scheduled storm action, pinned to a request index so the
// timeline is a function of the seed and request count alone.
type event struct {
	At   int    `json:"at"`
	Kind string `json:"kind"`
	Note string `json:"note"`
}

type chaosReport struct {
	Seed         int64   `json:"seed"`
	Shards       int     `json:"shards"`
	Tenants      int     `json:"tenants"`
	Requests     int     `json:"requests"`
	ZipfS        float64 `json:"zipf_s"`
	OK           int     `json:"ok"`
	Failed       int     `json:"failed"`
	Availability float64 `json:"availability"`
	Events       []event `json:"events"`

	CorruptedTenant string   `json:"corrupted_tenant"`
	Quarantines     uint64   `json:"quarantines"`
	RePrunes        uint64   `json:"re_prunes"`
	FsyncStalls     uint64   `json:"fsync_stalls"`
	Blackholed      uint64   `json:"blackholed"`
	LostTenants     []string `json:"lost_tenants"`
	LogitMismatches []string `json:"logit_mismatches"`
	Violations      []string `json:"violations"`
	ElapsedSec      float64  `json:"elapsed_sec"`
}

// shardProc is one in-process crisp-serve: a real serve.Server behind the
// real API mux on a real TCP listener. Kill closes the listener and every
// connection — the process is gone as far as the cluster can tell — while
// the serve.Server object survives only so the harness can read its
// counters and close it at exit.
type shardProc struct {
	id   string
	addr string
	srv  *serve.Server
	hs   *http.Server
}

func (sp *shardProc) kill() { sp.hs.Close() }

type env struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

func buildEnv(seed int64) *env {
	cfg := data.Config{Name: "chaos", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: seed}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(seed+1)), cfg.NumClasses, 1)
	}
	base := build()
	pruner.Finetune(base, ds.MakeSplit("pretrain", []int{0, 1, 2, 3, 4, 5}, 8), 2, 16,
		nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(seed+2)))
	base.ReleaseTrainingState()
	return &env{ds: ds, build: build, base: base}
}

// newShard starts a shard sharing snapshot directory dir through the fault
// filesystem. A non-empty addr rebinds that address — restarting a dead
// shard's process on its old identity.
func newShard(e *env, id, dir, addr string, ffs fault.FS) (*shardProc, error) {
	srv, err := serve.NewServer(e.build, e.base, e.ds, serve.Options{
		Workers:     2,
		SnapshotDir: dir,
		FS:          ffs,
		Prune: pruner.Options{
			Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
		},
		TrainPerClass: 6,
		TestPerClass:  4,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", id, err)
	}
	ln, err := listen(addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("shard %s: %w", id, err)
	}
	sp := &shardProc{id: id, addr: ln.Addr().String(), srv: srv,
		hs: &http.Server{Handler: api.NewMux(srv, e.ds, api.Config{ShardID: id})}}
	go sp.hs.Serve(ln)
	return sp, nil
}

// listen binds addr ("" for an ephemeral port). Rebinding a just-killed
// shard's address races the kernel releasing it, so a named addr retries.
func listen(addr string) (net.Listener, error) {
	if addr == "" {
		return net.Listen("tcp", "127.0.0.1:0")
	}
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("rebinding %s: %w", addr, err)
}

func canonKey(classes []int) string { return string(serve.AppendKey(nil, classes)) }

// makeTenants draws distinct class pairs; order is popularity order (index
// 0 is the Zipf head).
func makeTenants(rng *rand.Rand, n, numClasses int) [][]int {
	seen := map[string]bool{}
	var ts [][]int
	for len(ts) < n {
		a, b := rng.Intn(numClasses), rng.Intn(numClasses)
		if a == b {
			continue
		}
		classes := []int{a, b}
		if key := canonKey(classes); !seen[key] {
			seen[key] = true
			ts = append(ts, classes)
		}
	}
	return ts
}

func run(seed int64, nShards, nTenants, nRequests int, zipfS, minOK float64) (*chaosReport, error) {
	start := time.Now()
	rep := &chaosReport{Seed: seed, Shards: nShards, Tenants: nTenants, Requests: nRequests, ZipfS: zipfS}

	dir, err := os.MkdirTemp("", "crisp-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := buildEnv(seed)
	tenants := makeTenants(rand.New(rand.NewSource(seed+3)), nTenants, 6)

	// One fault filesystem under every shard (they share the snapshot dir,
	// so they share its disk), quiet until the storm; one fault transport
	// inside the router for resets, latency and the partition.
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

	fleet := map[string]*shardProc{}
	var graveyard []*shardProc // killed processes: counters dead, closed at exit
	defer func() {
		for _, sp := range fleet {
			sp.kill()
			sp.srv.Close()
		}
		for _, sp := range graveyard {
			sp.srv.Close()
		}
	}()

	rt := cluster.NewRouter(cluster.Options{
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
	})
	defer rt.Close()
	for i := 0; i < nShards; i++ {
		id := fmt.Sprintf("s%d", i+1)
		sp, err := newShard(e, id, dir, "", ffs)
		if err != nil {
			return nil, err
		}
		fleet[id] = sp
		rt.AddShard(id, sp.addr)
	}
	rt.Start()

	frontLn, err := listen("")
	if err != nil {
		return nil, err
	}
	front := &http.Server{Handler: rt.Mux()}
	go front.Serve(frontLn)
	defer front.Close()
	frontURL := "http://" + frontLn.Addr().String()

	// Prewarm every tenant through the router (teaching it each QoS class),
	// capture baseline logits from the owning engine, then flush so every
	// record is durable before the storm. Re-prunes after this point are
	// recoveries, and only the corrupted record is allowed one.
	qosNames := []string{"standard", "gold", "batch"}
	baseline := map[string][]float64{}
	for i, classes := range tenants {
		key := canonKey(classes)
		if err := personalizeVia(frontURL, classes, qosNames[i%len(qosNames)]); err != nil {
			return nil, fmt.Errorf("prewarm %q: %w", key, err)
		}
		owner, ok := rt.LookupShard(key)
		if !ok {
			return nil, fmt.Errorf("prewarm %q: no owner", key)
		}
		logits, err := logitsOn(e, fleet[owner].srv, classes)
		if err != nil {
			return nil, fmt.Errorf("prewarm %q on %s: %w", key, owner, err)
		}
		baseline[key] = logits
	}
	basePruned := map[*serve.Server]uint64{}
	for _, sp := range fleet {
		if _, err := sp.srv.Flush(); err != nil {
			return nil, fmt.Errorf("prewarm flush %s: %w", sp.id, err)
		}
		basePruned[sp.srv] = sp.srv.Stats().Personalizations
	}

	// The storm schedule, as request-index fractions: partition one shard,
	// corrupt a tenant record on disk and kill its owner, heal the
	// partition, then restart the dead shard on its old address.
	schedule := struct{ partition, corrupt, heal, restart, calm int }{
		partition: nRequests * 25 / 100,
		corrupt:   nRequests * 40 / 100,
		heal:      nRequests * 55 / 100,
		restart:   nRequests * 70 / 100,
		calm:      nRequests * 80 / 100,
	}
	partitionID := "s1"
	var killedID, killedAddr, corruptKey string

	zipf := rand.NewZipf(rand.New(rand.NewSource(seed+6)), zipfS, 1, uint64(len(tenants)-1))
	for i := 0; i < nRequests; i++ {
		switch i {
		case schedule.partition:
			ffs.SetEnabled(true)
			frt.Partition(fleet[partitionID].addr, true)
			rep.Events = append(rep.Events, event{At: i, Kind: "partition", Note: partitionID + " black-holed; fsync stalls on"})
		case schedule.corrupt:
			key, victim, err := corruptOneRecord(rt, dir, tenants, partitionID)
			if err != nil {
				return nil, err
			}
			corruptKey = key
			rep.CorruptedTenant = key
			killedID, killedAddr = victim, fleet[victim].addr
			fleet[victim].kill()
			graveyard = append(graveyard, fleet[victim])
			delete(fleet, victim)
			rep.Events = append(rep.Events, event{At: i, Kind: "corrupt+kill",
				Note: fmt.Sprintf("record of %q bit-flipped on disk, owner %s killed", key, victim)})
		case schedule.heal:
			frt.Partition(fleet[partitionID].addr, false)
			rep.Events = append(rep.Events, event{At: i, Kind: "heal", Note: partitionID + " partition healed"})
		case schedule.restart:
			// Flush survivors first so any re-snapshot (the quarantined
			// tenant's heal) is durable before the restarted shard can be
			// asked to restore it.
			for _, sp := range fleet {
				if _, err := sp.srv.Flush(); err != nil {
					return nil, fmt.Errorf("pre-restart flush %s: %w", sp.id, err)
				}
			}
			sp, err := newShard(e, killedID, dir, killedAddr, ffs)
			if err != nil {
				return nil, err
			}
			fleet[killedID] = sp
			basePruned[sp.srv] = 0 // fresh process: every pruning run it does is a recovery
			rep.Events = append(rep.Events, event{At: i, Kind: "restart",
				Note: killedID + " restarted on " + killedAddr + "; prober readmits it"})
		case schedule.calm:
			ffs.SetEnabled(false)
			rep.Events = append(rep.Events, event{At: i, Kind: "calm", Note: "fsync stalls off"})
		}

		classes := tenants[zipf.Uint64()]
		if status, err := predictVia(frontURL, classes); err == nil && status == http.StatusOK {
			rep.OK++
		} else {
			rep.Failed++
		}
	}
	rep.Availability = float64(rep.OK) / float64(nRequests)

	// Let the cluster converge: the prober must have readmitted both the
	// partitioned and the restarted shard before recovery is judged.
	if err := awaitConverged(frontURL, nShards, 15*time.Second); err != nil {
		rep.Violations = append(rep.Violations, err.Error())
	}

	// Verdict 1: zero lost tenants.
	for _, classes := range tenants {
		key := canonKey(classes)
		if !eventually(10, 200*time.Millisecond, func() bool {
			status, err := predictVia(frontURL, classes)
			return err == nil && status == http.StatusOK
		}) {
			rep.LostTenants = append(rep.LostTenants, key)
		}
	}

	// Verdict 2: bit-identical logits on each tenant's current owner.
	for _, classes := range tenants {
		key := canonKey(classes)
		owner, ok := rt.LookupShard(key)
		if !ok {
			rep.LogitMismatches = append(rep.LogitMismatches, key+" (no owner)")
			continue
		}
		logits, err := logitsOn(e, fleet[owner].srv, classes)
		if err != nil {
			rep.LogitMismatches = append(rep.LogitMismatches, key+" ("+err.Error()+")")
			continue
		}
		if !equalBits(logits, baseline[key]) {
			rep.LogitMismatches = append(rep.LogitMismatches, key)
		}
	}

	// Verdict 3: exactly one quarantine and one re-prune across the fleet.
	for _, sp := range fleet {
		st := sp.srv.Stats()
		rep.Quarantines += st.SnapshotsQuarantined
		rep.RePrunes += st.Personalizations - basePruned[sp.srv]
	}
	fst := ffs.Stats()
	rep.FsyncStalls = fst.SyncStalls
	rep.Blackholed = frt.Blackholed.Load()
	rep.ElapsedSec = time.Since(start).Seconds()

	if len(rep.LostTenants) > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("lost tenants: %v", rep.LostTenants))
	}
	if len(rep.LogitMismatches) > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("logits diverged after recovery: %v", rep.LogitMismatches))
	}
	if rep.Quarantines != 1 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("quarantines = %d, want exactly 1 (the corrupted record %q)", rep.Quarantines, corruptKey))
	}
	if rep.RePrunes != 1 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("re-prunes = %d, want exactly 1: failovers must restore, not re-prune", rep.RePrunes))
	}
	if rep.Availability < minOK {
		rep.Violations = append(rep.Violations, fmt.Sprintf("availability %.3f under the %.3f floor", rep.Availability, minOK))
	}
	return rep, nil
}

// corruptOneRecord flips a byte in the middle of one tenant's snapshot
// record — bitrot under a live fleet. The tenant is chosen so its owner is
// neither the partitioned shard (the two faults must be independent) nor
// unknown; the owner's id is returned so the schedule can kill it, forcing
// the next access to read the corrupted record cold.
func corruptOneRecord(rt *cluster.Router, dir string, tenants [][]int, partitionID string) (key, owner string, err error) {
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		return "", "", fmt.Errorf("reading snapshot index: %w", err)
	}
	for _, classes := range tenants {
		k := canonKey(classes)
		o, ok := rt.LookupShard(k)
		if !ok || o == partitionID {
			continue
		}
		name, ok := idx[k]
		if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return "", "", fmt.Errorf("reading record %s: %w", path, err)
		}
		if len(raw) < 16 {
			continue
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return "", "", fmt.Errorf("writing corrupted record %s: %w", path, err)
		}
		return k, o, nil
	}
	return "", "", errors.New("no corruptible tenant: every record is owned by the partitioned shard")
}

// logitsOn returns the tenant's logits over its deterministic probe batch,
// from the engine resident (or restored) on srv.
func logitsOn(e *env, srv *serve.Server, classes []int) ([]float64, error) {
	p, _, err := srv.Personalize(classes)
	if err != nil {
		return nil, err
	}
	x := probeX(e, classes)
	return append([]float64(nil), p.Engine().Logits(x).Data...), nil
}

func probeX(e *env, classes []int) *tensor.Tensor {
	return e.ds.MakeSplit("chaos-probe-"+canonKey(classes), classes, 2).X
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func personalizeVia(frontURL string, classes []int, qos string) error {
	body, _ := json.Marshal(map[string]any{"classes": classes, "qos": qos})
	resp, err := http.Post(frontURL+"/personalize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var pr struct {
		Fingerprint uint64 `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || pr.Fingerprint == 0 {
		return fmt.Errorf("status %d, fingerprint %d", resp.StatusCode, pr.Fingerprint)
	}
	return nil
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

// awaitConverged polls the router's /ring until every shard is Up and on
// the ring — the storm is over and the prober has readmitted everyone.
func awaitConverged(frontURL string, nShards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		var view struct {
			Shards []struct {
				ID     string `json:"id"`
				State  string `json:"state"`
				OnRing bool   `json:"on_ring"`
			} `json:"shards"`
		}
		resp, err := http.Get(frontURL + "/ring")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
		}
		if err == nil && len(view.Shards) == nShards {
			up := 0
			for _, sh := range view.Shards {
				if sh.State == "up" && sh.OnRing {
					up++
				}
			}
			if up == nShards {
				return nil
			}
			last = fmt.Sprintf("%d/%d shards up", up, nShards)
		} else if err != nil {
			last = err.Error()
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not converge within %s (%s)", timeout, last)
}

func eventually(attempts int, gap time.Duration, ok func() bool) bool {
	for i := 0; i < attempts; i++ {
		if ok() {
			return true
		}
		time.Sleep(gap)
	}
	return false
}

func writeReport(path string, rep *chaosReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

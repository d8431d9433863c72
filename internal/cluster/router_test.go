package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// stubShard fakes a crisp-serve shard: just enough of the HTTP surface for
// the router's placement, probing, failover, and drain orchestration to be
// tested without pruning a single model.
type stubShard struct {
	id string
	ts *httptest.Server

	draining atomic.Bool
	predicts atomic.Int64

	mu          sync.Mutex
	manifest    []serve.HandoffTenant
	handoffs    []api.HandoffRequest
	handoffGate chan struct{} // non-nil: /handoff blocks until closed
}

func newStubShard(t *testing.T, id string) *stubShard {
	t.Helper()
	sh := &stubShard{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := api.Health{Status: "ok", Shard: id, Draining: sh.draining.Load()}
		if h.Draining {
			h.Status = "draining"
		}
		h.Stats.CachedEngines = 1
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		sh.predicts.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"shard": id})
	})
	mux.HandleFunc("POST /personalize", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"shard": id})
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		sh.draining.Store(true)
		sh.mu.Lock()
		m := sh.manifest
		sh.mu.Unlock()
		json.NewEncoder(w).Encode(api.DrainResponse{Shard: id, Tenants: m})
	})
	mux.HandleFunc("POST /handoff", func(w http.ResponseWriter, r *http.Request) {
		var req api.HandoffRequest
		json.NewDecoder(r.Body).Decode(&req)
		sh.mu.Lock()
		gate := sh.handoffGate
		sh.mu.Unlock()
		if gate != nil {
			<-gate
		}
		sh.mu.Lock()
		sh.handoffs = append(sh.handoffs, req)
		sh.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"key": req.Key, "restored": true})
	})
	sh.ts = httptest.NewServer(mux)
	t.Cleanup(sh.ts.Close)
	return sh
}

func (sh *stubShard) addr() string { return sh.ts.Listener.Addr().String() }

// newStubCluster wires n stub shards behind a fast-probing router and
// returns the router, its HTTP front end, and the stubs by id.
func newStubCluster(t *testing.T, n int) (*Router, *httptest.Server, map[string]*stubShard) {
	t.Helper()
	rt := NewRouter(Options{
		ProbeInterval:  20 * time.Millisecond,
		FailThreshold:  2,
		PredictRetries: 3,
		RetryBackoff:   10 * time.Millisecond,
	})
	stubs := make(map[string]*stubShard, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i+1)
		sh := newStubShard(t, id)
		stubs[id] = sh
		rt.AddShard(id, sh.addr())
	}
	rt.Start()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Mux())
	t.Cleanup(front.Close)
	return rt, front, stubs
}

func postBody(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	b, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(b, &out)
	return resp, out
}

// keyOf is the tenant key of a class set, as the router composes it.
func keyOf(classes []int) string { return string(serve.AppendKey(nil, classes)) }

// TestRouterAndShardAgreeOnKeys: the key the router routes a body by is the
// key the owning shard caches the tenant under, for class sets sent sorted,
// unsorted and with duplicates. The router does not know the dataset, so a
// set with an id out of range still gets a key and a shard — whose 400 it is.
func TestRouterAndShardAgreeOnKeys(t *testing.T) {
	env := e2eShared()
	srv, err := serve.NewServer(env.build, env.base, env.ds, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		body    string
		want    string
		inRange bool
	}{
		{`{"classes":[3]}`, "3", true},
		{`{"classes":[1,3]}`, "1,3", true},
		{`{"classes":[3,1,3,1]}`, "1,3", true},
		{`{"classes":[5,0,2],"samples":4}`, "0,2,5", true},
		{`{"inputs":[[1,2]],"classes":[4,4,4]}`, "4", true},
		{`{"classes":[2,1],"classes":[5,4,4]}`, "4,5", true},
		{`{"classes":[0,1,2,3,4,5,5,4,3,2,1,0,0,1,2,3,4,5]}`, "0,1,2,3,4,5", true},
		{`{"classes":[99,1]}`, "1,99", false},
		{`{"classes":[3,-1,3]}`, "-1,3", false},
	} {
		classes, _, err := api.Route([]byte(tc.body), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := keyOf(classes); got != tc.want {
			t.Fatalf("%s: router key %q, want %q", tc.body, got, tc.want)
		}
		_, shardKey, err := srv.Canonicalize(classes)
		if tc.inRange && (err != nil || shardKey != tc.want) {
			t.Fatalf("%s: shard key %q (error %v), router key %q", tc.body, shardKey, err, tc.want)
		}
		if !tc.inRange && err == nil {
			t.Fatalf("%s: shard accepted an out-of-range class set", tc.body)
		}
	}
}

// TestRouteLookupAllocatesNothing locks in the proxy path's share of the
// wire-tax cut: taking the class set out of a 3.8 KB predict body, composing
// the tenant key and resolving it against the ring, the moving set and the
// QoS table cost no allocation.
func TestRouteLookupAllocatesNothing(t *testing.T) {
	rt := NewRouter(Options{})
	defer rt.Close()
	for _, id := range []string{"s1", "s2", "s3"} {
		rt.AddShard(id, "127.0.0.1:1")
	}
	var b strings.Builder
	b.WriteString(`{"classes":[7,2,5],"inputs":[[`)
	for i := 0; b.Len() < 3800; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.17g", float64(i)*-0.123456789012345)
	}
	b.WriteString(`]]}`)
	body := []byte(b.String())
	var owner *Shard
	allocs := testing.AllocsPerRun(200, func() {
		var cbuf [16]int
		classes, _, err := api.Route(body, cbuf[:0])
		if err != nil {
			t.Fatal(err)
		}
		var kbuf [96]byte
		key := serve.AppendKey(kbuf[:0], classes)
		if rt.isMoving(key) {
			t.Fatal("tenant is not moving")
		}
		rt.deadlineFor("/predict", key)
		owner, _ = rt.shardForHash(hashKey(key))
	})
	if want, _ := rt.LookupShard("2,5,7"); owner == nil || owner.ID != want {
		t.Fatalf("routed to %v, ring says %q", owner, want)
	}
	if allocs != 0 {
		t.Fatalf("route + lookup of a %d-byte body: %.0f allocations, want 0", len(body), allocs)
	}
}

// TestRouterBodyRules: both rules of the single read-into-buffer path, at
// the router: a body over the limit is 413 whether or not its length was
// announced (never truncated and answered as a JSON error), and anything
// but white space after the request object is 400.
func TestRouterBodyRules(t *testing.T) {
	_, front, stubs := newStubCluster(t, 1)
	huge := `{"classes":[1],"pad":"` + strings.Repeat("x", api.MaxBody) + `"}`
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		want       int
	}{
		{"oversized, length announced", "/predict", strings.NewReader(huge), http.StatusRequestEntityTooLarge},
		{"oversized, chunked", "/predict", struct{ io.Reader }{strings.NewReader(huge)}, http.StatusRequestEntityTooLarge},
		{"oversized personalize", "/personalize", strings.NewReader(huge), http.StatusRequestEntityTooLarge},
		{"personalize over the cold limit", "/personalize", strings.NewReader(huge[:api.MaxColdBody+1]), http.StatusRequestEntityTooLarge},
		{"personalize over the cold limit, chunked", "/personalize", struct{ io.Reader }{strings.NewReader(huge[:api.MaxColdBody+1])}, http.StatusRequestEntityTooLarge},
		{"predict of that size", "/predict", strings.NewReader(huge[:api.MaxColdBody-1] + `"}`), http.StatusOK},
		{"trailing junk", "/predict", strings.NewReader(`{"classes":[1]} junk`), http.StatusBadRequest},
		{"second object", "/personalize", strings.NewReader(`{"classes":[1]}{"classes":[2]}`), http.StatusBadRequest},
		{"trailing white space", "/predict", strings.NewReader("{\"classes\":[1]} \r\n\t"), http.StatusOK},
	} {
		resp, err := http.Post(front.URL+tc.path, "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if n := stubs["s1"].predicts.Load(); n != 2 {
		t.Fatalf("%d predicts reached the shard, want only the two well-formed ones", n)
	}
}

// TestRingHashUnchanged pins the ring hash to FNV-64a + the finalizer over
// either key representation: placements must survive the hash being inlined.
func TestRingHashUnchanged(t *testing.T) {
	for _, key := range []string{"", "1,3", "s3#63", "0,2,5,7,9"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		if got := hashKey(key); got != x || hashKey([]byte(key)) != x {
			t.Fatalf("hashKey(%q) = %#x (bytes %#x), FNV-64a reference %#x", key, got, hashKey([]byte(key)), x)
		}
	}
}

func TestRouterProxiesToOwner(t *testing.T) {
	rt, front, stubs := newStubCluster(t, 3)
	for _, classes := range [][]int{{1, 3}, {0, 2}, {2, 4, 5}, {1}} {
		key := keyOf(classes)
		owner, ok := rt.LookupShard(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		body, _ := json.Marshal(map[string]any{"classes": classes, "samples": 2})
		resp, out := postBody(t, front.URL+"/predict", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %q: status %d", key, resp.StatusCode)
		}
		if out["shard"] != owner {
			t.Fatalf("predict %q served by %v, ring says %q", key, out["shard"], owner)
		}
		// Duplicate/unsorted class sets are the same tenant: same owner.
		rev := append([]int(nil), classes...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		body, _ = json.Marshal(map[string]any{"classes": append(rev, classes[0])})
		if _, out := postBody(t, front.URL+"/predict", string(body)); out["shard"] != owner {
			t.Fatalf("non-canonical class order moved tenant %q to %v", key, out["shard"])
		}
	}
	if stubs["s1"].predicts.Load()+stubs["s2"].predicts.Load()+stubs["s3"].predicts.Load() == 0 {
		t.Fatal("no stub saw a predict")
	}
}

// TestRouterPredictFailover: killing the owner mid-traffic reroutes the
// predict to a survivor on the same request — connection errors mark the
// shard down immediately, the retry re-looks-up the ring.
func TestRouterPredictFailover(t *testing.T) {
	rt, front, stubs := newStubCluster(t, 3)
	key := keyOf([]int{1, 3})
	owner, _ := rt.LookupShard(key)
	stubs[owner].ts.CloseClientConnections()
	stubs[owner].ts.Close()

	resp, out := postBody(t, front.URL+"/predict", `{"classes":[1,3],"samples":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover predict: status %d", resp.StatusCode)
	}
	if out["shard"] == owner {
		t.Fatalf("predict still served by dead shard %q", owner)
	}
	if rt.ring.Has(owner) {
		t.Fatal("dead shard still on the ring")
	}
	if newOwner, _ := rt.LookupShard(key); newOwner != out["shard"] {
		t.Fatalf("served by %v but ring says %q", out["shard"], newOwner)
	}

	// The router's own metrics record the event.
	resp2, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	for _, want := range []string{
		"crisp_router_retries_total 1",
		"crisp_router_shard_drops_total 1",
		fmt.Sprintf("crisp_router_shard_state{shard=%q} 2", owner),
		"crisp_router_ring_shards 2",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}
}

// TestRouterPersonalizeNotRetried: personalizations are not idempotent, so
// the router gives them one attempt (502 on failure) — but the failed
// attempt still marks the shard down, so the client's own retry lands on a
// survivor.
func TestRouterPersonalizeNotRetried(t *testing.T) {
	rt, front, stubs := newStubCluster(t, 3)
	key := keyOf([]int{2, 4})
	owner, _ := rt.LookupShard(key)
	stubs[owner].ts.CloseClientConnections()
	stubs[owner].ts.Close()

	resp, _ := postBody(t, front.URL+"/personalize", `{"classes":[2,4]}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("personalize to dead shard: status %d, want 502", resp.StatusCode)
	}
	resp, out := postBody(t, front.URL+"/personalize", `{"classes":[2,4]}`)
	if resp.StatusCode != http.StatusOK || out["shard"] == owner {
		t.Fatalf("client retry: status %d shard %v", resp.StatusCode, out["shard"])
	}
}

// TestRouterDrainMovesTenantsAnd503 drives the drain orchestration against
// stubs, holding the handoff open long enough to observe the mid-handoff
// window: predicts for a moving tenant get 503 + Retry-After, and once the
// handoff lands the tenant serves from its new owner.
func TestRouterDrainMovesTenantsAnd503(t *testing.T) {
	rt, front, stubs := newStubCluster(t, 3)
	key := keyOf([]int{1, 3})
	owner, _ := rt.LookupShard(key)
	victim := stubs[owner]
	victim.mu.Lock()
	victim.manifest = []serve.HandoffTenant{{Key: key, Classes: []int{1, 3}, Fingerprint: 0xabcd}}
	victim.mu.Unlock()
	gate := make(chan struct{})
	for _, sh := range stubs {
		sh.mu.Lock()
		sh.handoffGate = gate
		sh.mu.Unlock()
	}

	drained := make(chan error, 1)
	go func() {
		moved, errs, err := rt.DrainShard(owner)
		if err == nil && (moved != 1 || len(errs) != 0) {
			err = fmt.Errorf("moved=%d errs=%v", moved, errs)
		}
		drained <- err
	}()

	// While the tenant is mid-handoff the router must say "come back",
	// not route the request anywhere.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postBody(t, front.URL+"/predict", `{"classes":[1,3]}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed the mid-handoff 503")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	newOwner, _ := rt.LookupShard(key)
	if newOwner == owner {
		t.Fatal("drained shard still owns the tenant")
	}
	target := stubs[newOwner]
	target.mu.Lock()
	handoffs := append([]api.HandoffRequest(nil), target.handoffs...)
	target.mu.Unlock()
	if len(handoffs) != 1 || handoffs[0].Key != key || handoffs[0].Fingerprint != 0xabcd {
		t.Fatalf("handoff requests %+v", handoffs)
	}
	resp, out := postBody(t, front.URL+"/predict", `{"classes":[1,3]}`)
	if resp.StatusCode != http.StatusOK || out["shard"] != newOwner {
		t.Fatalf("post-drain predict: status %d shard %v", resp.StatusCode, out["shard"])
	}
	// The drained shard's own /healthz keeps saying draining, so the
	// prober must not re-add it.
	time.Sleep(100 * time.Millisecond)
	if rt.ring.Has(owner) {
		t.Fatal("prober re-added a drained shard")
	}
	if st := rt.shards[owner].State(); st != ShardDrained {
		t.Fatalf("drained shard state %v", st)
	}
}

// TestProberDropAndRevive: the probe loop takes an unreachable shard off
// the ring after FailThreshold misses and restores it when a fresh process
// answers on the same address.
func TestProberDropAndRevive(t *testing.T) {
	rt, _, stubs := newStubCluster(t, 3)
	victim := stubs["s2"]
	addr := victim.addr()
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	waitFor(t, 5*time.Second, "prober never dropped the dead shard", func() bool {
		return !rt.ring.Has("s2")
	})

	// A fresh (non-draining) process on the same address rejoins.
	ln := relisten(t, addr)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok", Shard: "s2"})
	})
	ts2 := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	ts2.Start()
	t.Cleanup(ts2.Close)

	waitFor(t, 5*time.Second, "prober never revived the recovered shard", func() bool {
		return rt.ring.Has("s2") && rt.shards["s2"].State() == ShardUp
	})
}

func TestRouterBadRequests(t *testing.T) {
	_, front, _ := newStubCluster(t, 1)
	for _, tc := range []struct {
		path, body string
	}{
		{"/predict", `{"classes":[]}`},
		{"/predict", `not json`},
		{"/personalize", `{"classes":[]}`},
		{"/drain", `{}`},
		{"/drain", `{"shard":"nope"}`},
	} {
		resp, _ := postBody(t, front.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// TestRouterEmptyRing: with every shard gone the router answers 503 with
// Retry-After instead of hanging or crashing.
func TestRouterEmptyRing(t *testing.T) {
	_, front, stubs := newStubCluster(t, 1)
	stubs["s1"].ts.CloseClientConnections()
	stubs["s1"].ts.Close()
	// First predict marks the shard down (then retries into the empty
	// ring); from then on the 503 is immediate.
	resp, _ := postBody(t, front.URL+"/predict", `{"classes":[1,3]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("empty-ring predict: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// relisten rebinds addr, retrying briefly — the old listener's port can
// take a moment to free.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, err)
	return nil
}

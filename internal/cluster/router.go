package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// Options tunes the router. Zero values get sane defaults (see NewRouter).
type Options struct {
	// VNodes is the virtual-node count per shard on the hash ring.
	VNodes int
	// ProbeInterval is the health-check period (default 1s).
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive probe failures take a shard
	// off the ring (default 3). The proxy path short-circuits this on
	// connection errors — a refused connection is conclusive.
	FailThreshold int
	// PredictRetries is how many times a failed predict is retried against
	// the (re-looked-up) owner before giving up (default 2). Predicts are
	// idempotent so retrying is safe; personalizations are not retried —
	// the client sees 502 and owns the retry.
	PredictRetries int
	// RetryBackoff is the initial backoff between predict retries,
	// doubling per attempt and capped at 1s (default 50ms). The wait is
	// context-cancellable: a client hang-up or router shutdown ends it.
	RetryBackoff time.Duration
	// PredictTimeout caps a proxied predict's per-request deadline (default
	// 10s); it is also the deadline when the tenant's QoS class is unknown.
	PredictTimeout time.Duration
	// BudgetScale turns a tenant's QoS latency budget into its predict
	// deadline: deadline = budget × BudgetScale, clamped to
	// [PredictFloor, PredictTimeout] (default 50). The budget is a p99
	// batch-flush target, not a proxy round trip; the scale leaves room for
	// queueing and the network while still letting gold tenants fail fast.
	BudgetScale int
	// PredictFloor is the minimum per-request predict deadline (default 1s):
	// even a 10ms-budget gold tenant should not be timed out by one GC pause.
	PredictFloor time.Duration
	// BreakerThreshold is how many consecutive inconclusive proxy failures
	// (timeouts, resets — not refused connections, which are conclusive on
	// their own) trip a shard's circuit breaker and mark it down (default 4).
	BreakerThreshold int
	// Client serves proxied requests. Deadlines are per-request (see
	// PredictTimeout and personalizeTimeout), so the default client carries no
	// blanket timeout — a blanket one would cap every request at the
	// slowest path's ceiling. The default keeps proxyIdleConnsPerHost idle
	// connections to each shard; a caller's client brings its own pool.
	Client *http.Client
	// ProbeClient serves /healthz probes. The default times out in 3s so a
	// wedged shard cannot stall the probe loop.
	ProbeClient *http.Client
}

// Router fronts a set of CRISP shards: it places tenants with a consistent
// hash ring, proxies /personalize and /predict to the owner, health-checks
// members, fails predicts over when a shard dies, and orchestrates drains
// so a shard leaves without losing a tenant.
type Router struct {
	opts        Options
	ring        *Ring
	client      *http.Client
	probeClient *http.Client
	// transport is the default client's connection pool, nil when the caller
	// supplied Options.Client; Close drops its idle connections.
	transport *http.Transport

	mu     sync.RWMutex
	shards map[string]*Shard

	// qosByKey remembers each tenant's QoS class, learned from the "qos"
	// field of proxied /personalize bodies, to derive predict deadlines.
	// Bounded by the tenant population (same order as the ring's placements).
	qosMu    sync.RWMutex
	qosByKey map[string]serve.QoSClass

	movingMu sync.Mutex
	moving   map[string]struct{} // tenant keys mid-handoff → 503 Retry-After

	stopc   chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	proxiedPersonalize atomic.Uint64
	proxiedPredict     atomic.Uint64
	retries            atomic.Uint64
	unavailable        atomic.Uint64 // 503s issued (moving tenants, empty ring)
	proxyErrors        atomic.Uint64 // 502s after exhausting owners
	handoffsMoved      atomic.Uint64
	handoffErrors      atomic.Uint64
	probeDrops         atomic.Uint64 // shards taken off the ring
	probeRevives       atomic.Uint64 // shards re-added after recovery
	proxyTimeouts      atomic.Uint64 // proxied requests that hit their deadline
	breakerTrips       atomic.Uint64 // shards marked down by the circuit breaker
}

// proxyIdleConnsPerHost sizes the default client's keep-alive pool per shard:
// enough that a router under a few dozen concurrent requests per shard reuses
// connections instead of dialling, small enough to cost an idle router
// nothing that matters.
const proxyIdleConnsPerHost = 64

// personalizeTimeout bounds a proxied personalization, which is a full
// pruning run on the shard.
const personalizeTimeout = 5 * time.Minute

// NewRouter builds a router with no members; call AddShard then Start.
func NewRouter(opts Options) *Router {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.PredictRetries < 0 {
		opts.PredictRetries = 0
	} else if opts.PredictRetries == 0 {
		opts.PredictRetries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.PredictTimeout <= 0 {
		opts.PredictTimeout = 10 * time.Second
	}
	if opts.BudgetScale <= 0 {
		opts.BudgetScale = 50
	}
	if opts.PredictFloor <= 0 {
		opts.PredictFloor = time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 4
	}
	rt := &Router{
		opts:        opts,
		ring:        NewRing(opts.VNodes),
		client:      opts.Client,
		probeClient: opts.ProbeClient,
		shards:      make(map[string]*Shard),
		qosByKey:    make(map[string]serve.QoSClass),
		moving:      make(map[string]struct{}),
		stopc:       make(chan struct{}),
	}
	if rt.client == nil {
		// http.DefaultTransport keeps two idle connections per host: with
		// more concurrent predicts than that to one shard, every request
		// past the second dials a fresh connection and drops it afterwards.
		rt.transport = &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConnsPerHost: proxyIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		}
		rt.client = &http.Client{Transport: rt.transport}
	}
	if rt.probeClient == nil {
		rt.probeClient = &http.Client{Timeout: 3 * time.Second}
	}
	return rt
}

// AddShard registers a member and puts it on the ring optimistically; the
// first probe (or first failed proxy) corrects a dead one. Re-adding an
// existing id updates its address and revives it.
func (rt *Router) AddShard(id, addr string) {
	rt.mu.Lock()
	sh, ok := rt.shards[id]
	if !ok {
		sh = &Shard{ID: id, Addr: addr}
		rt.shards[id] = sh
	}
	rt.mu.Unlock()
	sh.urls.Store(&shardURLs{
		predict:     url.URL{Scheme: "http", Host: addr, Path: "/predict"},
		personalize: url.URL{Scheme: "http", Host: addr, Path: "/personalize"},
	})
	sh.mu.Lock()
	sh.Addr = addr
	sh.state = ShardUp
	sh.fails = 0
	sh.breakerFails = 0
	sh.mu.Unlock()
	rt.ring.Add(id)
}

// Start launches the health prober. Close stops it.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stopc:
				return
			case <-t.C:
				for _, sh := range rt.members() {
					rt.probeOnce(sh)
				}
			}
		}
	}()
}

// Close stops the prober; in-flight proxied requests finish on their own.
func (rt *Router) Close() {
	rt.stopped.Do(func() { close(rt.stopc) })
	rt.wg.Wait()
	if rt.transport != nil {
		rt.transport.CloseIdleConnections()
	}
}

func (rt *Router) members() []*Shard {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*Shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shardFor resolves a tenant key to its current owner.
func (rt *Router) shardFor(key string) (*Shard, bool) {
	return rt.shardForHash(hashKey(key))
}

// shardForHash is shardFor by the key's ring hash.
func (rt *Router) shardForHash(h uint64) (*Shard, bool) {
	id, ok := rt.ring.lookupHash(h)
	if !ok {
		return nil, false
	}
	rt.mu.RLock()
	sh, ok := rt.shards[id]
	rt.mu.RUnlock()
	return sh, ok
}

// LookupShard exposes placement (tests, ops tooling): the owning shard id
// for a canonical tenant key.
func (rt *Router) LookupShard(key string) (string, bool) {
	return rt.ring.Lookup(key)
}

// isMoving takes the key as the bytes the proxy path composed it in: the map
// index converts without allocating.
func (rt *Router) isMoving(key []byte) bool {
	rt.movingMu.Lock()
	defer rt.movingMu.Unlock()
	_, ok := rt.moving[string(key)]
	return ok
}

func (rt *Router) setMoving(key string, moving bool) {
	rt.movingMu.Lock()
	if moving {
		rt.moving[key] = struct{}{}
	} else {
		delete(rt.moving, key)
	}
	rt.movingMu.Unlock()
}

// Mux wires the router's HTTP surface:
//
//	POST /personalize, POST /predict — proxied to the owning shard
//	POST /drain {"shard":"id"}       — orchestrate that shard's exit
//	GET  /ring                       — membership, states, placements
//	GET  /metrics                    — router + per-shard Prometheus text
//	GET  /healthz                    — router liveness
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /personalize", func(w http.ResponseWriter, r *http.Request) {
		rt.proxiedPersonalize.Add(1)
		rt.proxy(w, r, "/personalize", false)
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		rt.proxiedPredict.Add(1)
		rt.proxy(w, r, "/predict", true)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Shard string `json:"shard"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Shard == "" {
			httpError(w, http.StatusBadRequest, errors.New("drain request needs {\"shard\":\"id\"}"))
			return
		}
		moved, errs, err := rt.DrainShard(req.Shard)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]any{"shard": req.Shard, "moved": moved, "errors": errs})
	})
	mux.HandleFunc("GET /ring", func(w http.ResponseWriter, r *http.Request) {
		members := rt.members()
		hs := make([]ShardHealth, 0, len(members))
		for _, sh := range members {
			hs = append(hs, sh.health(rt.ring.Has(sh.ID)))
		}
		writeJSON(w, map[string]any{"shards": hs, "ring": rt.ring.Nodes()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.writeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"status": "ok", "shards": len(rt.members()), "on_ring": len(rt.ring.Nodes()),
		})
	})
	return mux
}

// proxyBody is one proxied request's body, read once into a buffer that is
// recycled through proxyBodies and sent to the shard (again on a retry) from
// there. net/http may go on reading a request body after the round trip has
// returned and closes it when done, so the buffer is counted: the handler
// holds one reference, every reader handed to the client another, and the
// last release recycles it. A round tripper that never closes a body only
// costs the reuse.
type proxyBody struct {
	buf  []byte
	refs atomic.Int32
	// getBody is reader as http.Request.GetBody wants it, made once per
	// proxyBody: the transport rewinds a request with it when a kept-alive
	// connection turns out to be dead.
	getBody func() (io.ReadCloser, error)
}

var proxyBodies = sync.Pool{New: func() any {
	pb := &proxyBody{}
	pb.getBody = func() (io.ReadCloser, error) { return pb.reader(), nil }
	return pb
}}

func (pb *proxyBody) reader() *bodyReader {
	pb.refs.Add(1)
	rd := &bodyReader{pb: pb}
	rd.Reset(pb.buf)
	return rd
}

func (pb *proxyBody) release() {
	if pb.refs.Add(-1) == 0 && cap(pb.buf) <= api.MaxPooledBody {
		proxyBodies.Put(pb)
	}
}

// bodyReader reads a proxyBody's buffer and gives its reference back on the
// first Close.
type bodyReader struct {
	bytes.Reader
	pb     *proxyBody
	closed atomic.Bool
}

func (rd *bodyReader) Close() error {
	if !rd.closed.Swap(true) {
		rd.pb.release()
	}
	return nil
}

// proxy forwards one request to the tenant's owner. Idempotent requests
// (predicts) retry with exponential backoff after a failure: a connection
// error marks the owner down, so the re-lookup lands on a survivor, which
// restores the tenant from the shared snapshot store instead of re-pruning.
// A shard-side 503 (draining) triggers an immediate re-probe so the ring
// sheds the drainer before the retry. Non-idempotent personalizations get
// one attempt; the client owns that retry. 4xx responses — including the
// QoS layer's 429s (ErrOverloaded/ErrOverQuota) — relay to the client
// without failover: the tenant's quota bucket lives on its owner shard,
// so retrying elsewhere would dodge the very limiter that fired.
//
// The hot path allocates nothing of its own before the request leaves: the
// body is read into a recycled buffer, api.Route takes the class set out of
// it without building a value for anything else, and the tenant key is
// composed, hashed and looked up as bytes on the stack.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string, idempotent bool) {
	pb := proxyBodies.Get().(*proxyBody)
	pb.refs.Store(1)
	defer pb.release()
	var err error
	limit := int64(api.MaxBody)
	if path == "/personalize" {
		limit = api.MaxColdBody
	}
	if pb.buf, err = api.ReadBody(pb.buf, r, limit); err != nil {
		httpError(w, api.BodyErrorStatus(err), fmt.Errorf("reading request: %w", err))
		return
	}
	var cbuf [16]int
	classes, qos, err := api.Route(pb.buf, cbuf[:0])
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(classes) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty class set"))
		return
	}
	var kbuf [96]byte // stays on the stack: error messages below copy the key
	key := serve.AppendKey(kbuf[:0], classes)
	if path == "/personalize" && qos != "" {
		// Remember the class so later predicts get a budget-derived deadline.
		// Invalid values are the shard's 400 to give; don't learn them.
		if class, err := serve.ParseQoSClass(qos); err == nil {
			rt.qosMu.Lock()
			rt.qosByKey[string(key)] = class
			rt.qosMu.Unlock()
		}
	}
	if rt.isMoving(key) {
		rt.unavailable.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("tenant {%s} is mid-handoff", string(key)))
		return
	}

	attempts := 1
	if idempotent {
		attempts += rt.opts.PredictRetries
	}
	timeout := rt.deadlineFor(path, key)
	backoff := rt.opts.RetryBackoff
	hash := hashKey(key)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
			if !rt.sleepBackoff(r.Context(), backoff) {
				// The client hung up or the router is shutting down; there
				// is no one left to retry for.
				rt.proxyErrors.Add(1)
				httpError(w, http.StatusBadGateway, fmt.Errorf("retry abandoned for {%s}: %w", string(key), lastErr))
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		sh, ok := rt.shardForHash(hash)
		if !ok {
			rt.unavailable.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, errors.New("no shards on the ring"))
			return
		}
		resp, err := rt.postShard(r.Context(), sh.url(path), pb, timeout)
		if err != nil {
			rt.shardFailed(sh, err)
			lastErr = err
			continue
		}
		sh.breakerReset()
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The shard is draining and does not hold this tenant: probe it
			// now so the ring stops pointing at it, then retry elsewhere.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.probeOnce(sh)
			lastErr = fmt.Errorf("shard %s is draining", sh.ID)
			if !idempotent {
				rt.unavailable.Add(1)
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, lastErr)
				return
			}
			continue
		}
		if idempotent && resp.StatusCode >= 500 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s returned %d", sh.ID, resp.StatusCode)
			continue
		}
		relay(w, resp)
		return
	}
	rt.proxyErrors.Add(1)
	httpError(w, http.StatusBadGateway, fmt.Errorf("no shard could serve {%s}: %w", string(key), lastErr))
}

// deadlineFor derives the per-request deadline: personalizations get the
// flat pruning-run bound; predicts get the tenant's QoS latency budget
// scaled by BudgetScale and clamped to [PredictFloor, PredictTimeout], so a
// gold tenant's failover fires in about a second while a batch tenant is
// given the time its class already promised it.
func (rt *Router) deadlineFor(path string, key []byte) time.Duration {
	if path != "/predict" {
		return personalizeTimeout
	}
	rt.qosMu.RLock()
	class, ok := rt.qosByKey[string(key)]
	rt.qosMu.RUnlock()
	if !ok {
		return rt.opts.PredictTimeout
	}
	d := serve.DefaultQoSPolicy(class).LatencyBudget * time.Duration(rt.opts.BudgetScale)
	if d < rt.opts.PredictFloor {
		d = rt.opts.PredictFloor
	}
	if d > rt.opts.PredictTimeout {
		d = rt.opts.PredictTimeout
	}
	return d
}

// proxyHeader is the header of every proxied request. It is shared and never
// written: a round tripper may not modify the request it is given.
var proxyHeader = http.Header{"Content-Type": {"application/json"}}

// postShard issues one deadline-bounded POST of pb to a shard URL. The
// deadline's cancel is tied to the response body: it fires when the caller
// closes the body (relay or the retry loop's drain), never before the body
// is read.
func (rt *Router) postShard(ctx context.Context, u *url.URL, pb *proxyBody, timeout time.Duration) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	req := (&http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host, Header: proxyHeader,
		Body: pb.reader(), GetBody: pb.getBody, ContentLength: int64(len(pb.buf)),
	}).WithContext(ctx)
	resp, err := rt.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases a request's deadline context when its response body
// is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// sleepBackoff waits out one retry backoff, abandoning the wait (false) if
// the client's request context ends or the router shuts down — a goroutine
// sleeping toward a dead client is a slow leak under a partition storm.
func (rt *Router) sleepBackoff(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-rt.stopc:
		return false
	}
}

// shardFailed classifies a proxy transport error. Conclusive failures — the
// connection was refused, meaning no process listens there — mark the shard
// down immediately. Inconclusive ones (deadline hit, connection reset,
// truncated response: the shard may be fine and the path broken, or slow
// rather than dead) feed the shard's circuit breaker; BreakerThreshold
// consecutive inconclusive failures trip it, taking the shard off the ring
// until a probe succeeds. One flaky request never evicts a shard, and a
// black-holed one cannot keep absorbing traffic for FailThreshold probe
// rounds either.
func (rt *Router) shardFailed(sh *Shard, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		rt.proxyTimeouts.Add(1)
	}
	var opErr *net.OpError
	if errors.Is(err, syscall.ECONNREFUSED) || (errors.As(err, &opErr) && opErr.Op == "dial") {
		rt.markDown(sh, err)
		return
	}
	sh.mu.Lock()
	sh.breakerFails++
	trip := sh.breakerFails >= rt.opts.BreakerThreshold
	sh.mu.Unlock()
	if trip {
		rt.breakerTrips.Add(1)
		rt.markDown(sh, fmt.Errorf("circuit breaker tripped: %w", err))
	}
}

// relay copies the shard's response through to the client. The two headers
// that matter are passed on as the slices the response already holds.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range [...]string{"Content-Type", "Retry-After"} {
		if v := resp.Header[h]; len(v) > 0 && v[0] != "" {
			w.Header()[h] = v[:1]
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

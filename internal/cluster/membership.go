package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/serve"
)

// ShardState is a shard's place in the membership lifecycle.
//
//	Up       — on the ring, taking placements and traffic.
//	Draining — off the ring, serving residents while its tenants move.
//	Down     — off the ring after failed probes; tenants recover lazily
//	           from the shared snapshot store on whichever shard the ring
//	           re-places them.
//	Drained  — off the ring with all tenants handed off; the process keeps
//	           answering /healthz with draining=true so the prober never
//	           re-adds it. A restarted (fresh) process reports
//	           draining=false and rejoins as Up.
type ShardState int32

const (
	ShardUp ShardState = iota
	ShardDraining
	ShardDown
	ShardDrained
)

func (st ShardState) String() string {
	switch st {
	case ShardUp:
		return "up"
	case ShardDraining:
		return "draining"
	case ShardDown:
		return "down"
	case ShardDrained:
		return "drained"
	}
	return fmt.Sprintf("state(%d)", int32(st))
}

// Shard is one serving process in the membership table. The router owns
// the table; state moves under the shard's lock so the prober and the
// proxy path (which marks shards down on connection errors) never race.
type Shard struct {
	ID   string
	Addr string // host:port, no scheme
	// urls holds the proxied endpoints of Addr, parsed once per AddShard.
	urls atomic.Pointer[shardURLs]

	mu           sync.Mutex
	state        ShardState
	fails        int         // consecutive probe failures
	breakerFails int         // consecutive inconclusive proxy failures (circuit breaker)
	stats        serve.Stats // last successful /healthz snapshot
	lastErr      string
}

// shardURLs are the endpoints the router proxies to on one shard address.
type shardURLs struct{ predict, personalize url.URL }

// url returns the shard's endpoint for a proxied path.
func (sh *Shard) url(path string) *url.URL {
	u := sh.urls.Load()
	if path == "/predict" {
		return &u.predict
	}
	return &u.personalize
}

// breakerReset clears the circuit breaker after a successful proxied
// response: the breaker counts consecutive failures only.
func (sh *Shard) breakerReset() {
	sh.mu.Lock()
	sh.breakerFails = 0
	sh.mu.Unlock()
}

func (sh *Shard) State() ShardState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state
}

// ShardHealth is the router's externally visible view of one shard
// (GET /ring and the e2e assertions).
type ShardHealth struct {
	ID            string `json:"id"`
	Addr          string `json:"addr"`
	State         string `json:"state"`
	OnRing        bool   `json:"on_ring"`
	Fails         int    `json:"fails"`
	LastError     string `json:"last_error,omitempty"`
	CachedEngines int    `json:"cached_engines"`
	QueueDepth    int    `json:"queue_depth"`
	Requests      uint64 `json:"requests"`
}

func (sh *Shard) health(onRing bool) ShardHealth {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShardHealth{
		ID: sh.ID, Addr: sh.Addr, State: sh.state.String(), OnRing: onRing,
		Fails: sh.fails, LastError: sh.lastErr,
		CachedEngines: sh.stats.CachedEngines, QueueDepth: sh.stats.QueueDepth,
		Requests: sh.stats.Requests,
	}
}

// probeOnce polls one shard's /healthz and applies the state machine: a
// success clears the failure streak, refreshes the load snapshot, and
// revives a Down shard (unless it reports draining — a drained husk must
// not rejoin); failures accumulate until FailThreshold takes the shard off
// the ring.
func (rt *Router) probeOnce(sh *Shard) {
	h, err := rt.fetchHealth(sh.Addr)
	sh.mu.Lock()
	if err != nil {
		sh.fails++
		sh.lastErr = err.Error()
		drop := sh.fails >= rt.opts.FailThreshold && (sh.state == ShardUp || sh.state == ShardDraining)
		if drop {
			sh.state = ShardDown
		}
		sh.mu.Unlock()
		if drop {
			rt.ring.Remove(sh.ID)
			rt.probeDrops.Add(1)
		}
		return
	}
	sh.fails = 0
	sh.breakerFails = 0
	sh.lastErr = ""
	sh.stats = h.Stats
	revive := false
	switch {
	case h.Draining:
		// The shard refuses new tenants; make sure the ring agrees. A
		// shard that drained while we thought it was Up (admin hit its
		// /drain directly) is discovered here.
		if sh.state == ShardUp {
			sh.state = ShardDraining
		}
	case sh.state == ShardDown || sh.state == ShardDrained:
		// A fresh process answering on the old address: rejoin.
		sh.state = ShardUp
		revive = true
	}
	draining := h.Draining
	sh.mu.Unlock()
	switch {
	case draining:
		rt.ring.Remove(sh.ID)
	case revive:
		rt.ring.Add(sh.ID)
		rt.probeRevives.Add(1)
	}
}

func (rt *Router) fetchHealth(addr string) (api.Health, error) {
	var h api.Health
	resp, err := rt.probeClient.Get("http://" + addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decoding healthz: %w", err)
	}
	return h, nil
}

// markDown is the proxy path's fast failure detector: a connection error
// (the process is gone, not merely slow) takes the shard off the ring
// immediately instead of waiting FailThreshold probe rounds, so the very
// next lookup re-places its tenants onto survivors.
func (rt *Router) markDown(sh *Shard, err error) {
	sh.mu.Lock()
	already := sh.state == ShardDown
	if !already {
		sh.state = ShardDown
		sh.fails = rt.opts.FailThreshold
		sh.lastErr = err.Error()
	}
	sh.mu.Unlock()
	if !already {
		rt.ring.Remove(sh.ID)
		rt.probeDrops.Add(1)
	}
}

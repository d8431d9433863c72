package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/inference"
)

// TestTierModel is a seeded model-based test of a Float32 server over a
// snapshot directory: a random interleaving of personalize, predict at batch
// 1 and 16, demotion under byte-budget pressure, warm promotion, Flush, and
// close + NewServer + Restore on the same directory. After every step:
//
//   - every engine a step serves computes the oracle's logits, bit for bit;
//   - no flushed tenant is lost across a restart, and a durable tenant is
//     never pruned again;
//   - Stats().HotBytes (WarmBytes) is the sum of the hot (warm) tenants'
//     resident sizes, and the hot tier honors its byte budget;
//   - every hot or warm tenant carries the header it was first admitted
//     with: accuracy, sparsity and FLOPs ratio never change across a
//     transition.
//
// A failure names its seed and the steps that led to it; the subtest
// "seed=N" replays it. -short runs 3 seeds, the full suite more.
func TestTierModel(t *testing.T) {
	pool := [][]int{{1, 3}, {0, 2}, {4}, {2, 5}, {0, 1, 5}}
	prune := quickOpts().Prune.WithDefaults()
	oracles := make(map[string]*inference.Engine)
	var maxHot int64
	for _, set := range pool {
		eng := oracle(t, prune, quickOpts().TrainPerClass, set, inference.Float32)
		oracles[keyOf(set)] = eng
		maxHot = max(maxHot, eng.MemoryFootprint()+personalizationOverheadBytes)
	}
	// Two hot tenants fit and three do not; the warm tier holds about one
	// more, so demotions park warm records and evict some to the store.
	hotBudget := 2*maxHot + maxHot/2
	seeds := 3
	if !testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTierModel(t, seed, pool, oracles, hotBudget)
		})
	}
}

// keyOf is the cache key of a canonical class set.
func keyOf(set []int) string { return string(AppendKey(nil, set)) }

// tierModel is what the test knows of the server it drives.
type tierModel struct {
	t       *testing.T
	rng     *rand.Rand
	opts    Options
	s       *Server
	oracles map[string]*inference.Engine
	// header is each tenant's header as first admitted; flushed holds the
	// keys a successful Flush found resident.
	header  map[string]checkpoint.PersonalizationRecord
	flushed map[string]bool
	steps   []string
	// moved counts the tier transitions of every server the test opened.
	moved struct{ demotions, promotions, restores, prunes uint64 }
}

func runTierModel(t *testing.T, seed int64, pool [][]int, oracles map[string]*inference.Engine, hotBudget int64) {
	opts := quickOpts()
	opts.SnapshotDir = t.TempDir()
	opts.HotFraction = 0.75
	opts.MemoryBudgetBytes = int64(float64(hotBudget) / opts.HotFraction)
	m := &tierModel{
		t: t, rng: rand.New(rand.NewSource(seed)), opts: opts, oracles: oracles,
		header: make(map[string]checkpoint.PersonalizationRecord), flushed: make(map[string]bool),
	}
	m.s = m.open()
	t.Cleanup(func() {
		m.s.Close()
		if t.Failed() {
			t.Logf("seed %d, steps:\n  %s", seed, strings.Join(m.steps, "\n  "))
		}
	})
	const steps = 30
	for range steps {
		set := pool[m.rng.Intn(len(pool))]
		switch op := m.rng.Intn(10); {
		case op < 3:
			m.personalize("personalize", set)
		case op < 5:
			m.predict(set, []int{1, 16}[m.rng.Intn(2)])
		case op < 7:
			m.pressure(pool)
		case op < 8:
			m.promote()
		case op < 9:
			m.flush()
		default:
			m.restart()
		}
		m.check()
	}
	m.tally()
	if m.moved.demotions == 0 || m.moved.promotions == 0 || m.moved.restores == 0 {
		t.Fatalf("seed %d did not move tenants through every tier: %+v", seed, m.moved)
	}
	// Close waits out the write-behind snapshots, so no tenant, flushed or
	// not, is lost across a restart: each was pruned once.
	if m.moved.prunes != uint64(len(m.header)) {
		t.Fatalf("seed %d pruned %d times for %d tenants: %+v", seed, m.moved.prunes, len(m.header), m.moved)
	}
}

func (m *tierModel) open() *Server {
	env := sharedEnv()
	s, err := NewServer(env.build, env.base, env.ds, m.opts)
	if err != nil {
		m.t.Fatal(err)
	}
	return s
}

// tally adds the current server's tier transitions to m.moved.
func (m *tierModel) tally() {
	st := m.s.Stats()
	m.moved.demotions += st.Demotions
	m.moved.promotions += st.Promotions
	m.moved.restores += st.RestoreHits
	m.moved.prunes += st.Personalizations
}

func (m *tierModel) step(format string, args ...any) {
	m.steps = append(m.steps, fmt.Sprintf(format, args...))
}

// personalize asks for set's tenant and holds it to the oracle and to its
// header. A durable tenant must come back from a tier, never the pruner.
func (m *tierModel) personalize(why string, set []int) {
	key := keyOf(set)
	m.step("%s {%s}", why, key)
	durable := m.s.store.has(key)
	before := m.s.Stats().Personalizations
	p, _, err := m.s.Personalize(set)
	if err != nil {
		m.t.Fatalf("%s {%s}: %v", why, key, err)
	}
	if durable && m.s.Stats().Personalizations != before {
		m.t.Fatalf("%s {%s}: a durable tenant was pruned again", why, key)
	}
	m.checkLogits(why, p)
	m.checkHeader(why, p.PersonalizationRecord)
}

// predict serves a batch of n samples through the server and holds the
// answer, and the logits of the engine that gave it, to the oracle.
func (m *tierModel) predict(set []int, n int) {
	key := keyOf(set)
	m.step("predict {%s} at batch %d", key, n)
	split := m.s.ds.MakeSplit(fmt.Sprintf("model-probe/%d", m.rng.Intn(1<<20)), set, 16)
	x := split.Subset(m.rng.Perm(split.Len())[:n]).X
	got, err := m.s.Predict(set, x)
	if err != nil {
		m.t.Fatalf("predict {%s}: %v", key, err)
	}
	if want := m.oracles[key].Predict(x); !slices.Equal(got, want) {
		m.t.Fatalf("predict {%s} at batch %d: %v, the oracle's %v", key, n, got, want)
	}
	m.s.mu.Lock()
	el, hot := m.s.entries[key]
	m.s.mu.Unlock()
	if !hot {
		m.t.Fatalf("predict {%s}: the tenant that served is not hot", key)
	}
	m.checkLogits("predict", el.Value.(*Personalization))
}

// pressure personalizes a tenant that is not hot, so the hot tier, already
// at its budget, demotes its least recently used tenant.
func (m *tierModel) pressure(pool [][]int) {
	var cold [][]int
	m.s.mu.Lock()
	for _, set := range pool {
		if _, hot := m.s.entries[keyOf(set)]; !hot {
			cold = append(cold, set)
		}
	}
	m.s.mu.Unlock()
	if len(cold) > 0 {
		m.personalize("pressure", cold[m.rng.Intn(len(cold))])
	}
}

// promote personalizes a warm tenant: a promotion, not a restore or prune.
func (m *tierModel) promote() {
	m.s.mu.Lock()
	var warm []string
	for key := range m.s.warm {
		warm = append(warm, key)
	}
	m.s.mu.Unlock()
	if len(warm) == 0 {
		return
	}
	slices.Sort(warm)
	key := warm[m.rng.Intn(len(warm))]
	before := m.s.Stats().Promotions
	m.personalize("promote", m.header[key].Classes)
	if m.s.Stats().Promotions != before+1 {
		m.t.Fatalf("promote {%s}: no warm promotion", key)
	}
}

// flush writes every resident tenant; each is then in the store.
func (m *tierModel) flush() {
	m.step("flush")
	if _, err := m.s.Flush(); err != nil {
		m.t.Fatalf("flush: %v", err)
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for key := range m.s.entries {
		m.flushed[key] = true
	}
	for key := range m.s.warm {
		m.flushed[key] = true
	}
	for key := range m.flushed {
		if !m.s.store.has(key) {
			m.t.Fatalf("flush: {%s} is not in the store", key)
		}
	}
}

// restart closes the server and restores a new one from the directory:
// every flushed tenant is still in its store.
func (m *tierModel) restart() {
	m.step("restart")
	m.tally()
	m.s.Close()
	m.s = m.open()
	if _, err := m.s.Restore(); err != nil {
		m.t.Fatalf("restore: %v", err)
	}
	if st := m.s.Stats(); st.RestoreErrors != 0 {
		m.t.Fatalf("restore: %d bad record(s)", st.RestoreErrors)
	}
	for key := range m.flushed {
		if !m.s.store.has(key) {
			m.t.Fatalf("restart lost the flushed tenant {%s}", key)
		}
	}
	m.s.mu.Lock()
	var hot []*Personalization
	for _, el := range m.s.entries {
		hot = append(hot, el.Value.(*Personalization))
	}
	m.s.mu.Unlock()
	for _, p := range hot {
		m.checkLogits("restore", p)
		m.checkHeader("restore", p.PersonalizationRecord)
	}
}

// check holds the tier accounting and every resident header after a step.
func (m *tierModel) check() {
	st := m.s.Stats()
	m.s.mu.Lock()
	var hotSum, warmSum int64
	var headers []checkpoint.PersonalizationRecord
	for _, el := range m.s.entries {
		p := el.Value.(*Personalization)
		hotSum += p.size
		headers = append(headers, p.PersonalizationRecord)
	}
	for _, el := range m.s.warm {
		we := el.Value.(*warmEntry)
		warmSum += we.size
		headers = append(headers, we.PersonalizationRecord)
	}
	m.s.mu.Unlock()
	if st.HotBytes != hotSum || st.WarmBytes != warmSum {
		m.t.Fatalf("hot %d / warm %d bytes, the tenants' sizes sum to %d / %d", st.HotBytes, st.WarmBytes, hotSum, warmSum)
	}
	if st.HotBytes > m.s.hotBudget && st.CachedEngines > 1 {
		m.t.Fatalf("%d hot tenants hold %d bytes, over the %d-byte hot budget", st.CachedEngines, st.HotBytes, m.s.hotBudget)
	}
	for _, h := range headers {
		m.checkHeader("resident", h)
	}
}

func (m *tierModel) checkLogits(why string, p *Personalization) {
	x := m.s.ds.MakeSplit("model-logits/"+p.Key, p.Classes, 2).X
	if !slices.Equal(p.Engine().Logits(x).Data, m.oracles[p.Key].Logits(x).Data) {
		m.t.Fatalf("%s {%s}: logits differ from the oracle's", why, p.Key)
	}
}

// checkHeader records a tenant's first header and holds every later one to
// it.
func (m *tierModel) checkHeader(why string, h checkpoint.PersonalizationRecord) {
	first, seen := m.header[h.Key]
	if !seen {
		if h.Report.AchievedSparsity <= 0 || h.Report.FLOPsRatio <= 0 || h.Report.FLOPsRatio >= 1 {
			m.t.Fatalf("%s {%s}: implausible header %+v", why, h.Key, h)
		}
		m.header[h.Key] = h
		return
	}
	if !reflect.DeepEqual(h, first) {
		m.t.Fatalf("%s {%s}: header %+v, first admitted as %+v", why, h.Key, h, first)
	}
}

package main

import (
	"bytes"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// TestBadFlagsFailBeforeWork: every subcommand refuses a bad flag value
// with an error that names it, and the command line refuses a missing or
// unknown command. Each check runs before any work: without theirs, the
// prune and load cases pre-train a model and then panic.
func TestBadFlagsFailBeforeWork(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"prune", "-target", "1.5"}, "target sparsity 1.5"},
		{[]string{"prune", "-model", "nope"}, `-model "nope"`},
		{[]string{"load", "-model", "nope"}, `-model "nope"`},
		{[]string{"load", "-precisions", "float32,fp8"}, `-precisions: unknown precision "fp8"`},
		{[]string{"load", "-baseline", missing}, missing},
		{[]string{"sim", "-kept", "1.7"}, "-kept 1.7"},
		{[]string{"sim", "-act-density", "3"}, "-act-density 3"},
		{[]string{"serve", "-precision", "fp8"}, `-precision: unknown precision "fp8"`},
		{[]string{"serve", "-target", "1.5"}, "target sparsity 1.5"},
		{[]string{"router", "-shards", "bad"}, `-shards: bad shard "bad"`},
		{[]string{"router"}, "-shards: is required"},
		{[]string{"bench"}, `unknown command "bench"`},
		{nil, "no command"},
	} {
		run, err := command(tc.args)
		if err == nil {
			err = run(tc.args[1:])
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("crisp %s: error %v, want one containing %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"512K", 512 << 10, true},
		{"512k", 512 << 10, true},
		{"64M", 64 << 20, true},
		{"64MB", 64 << 20, true},
		{"64MiB", 64 << 20, true},
		{"2G", 2 << 30, true},
		{"1T", 1 << 40, true},
		{" 2G ", 2 << 30, true},
		{"-1", 0, false},
		{"lots", 0, false},
		{"1.5G", 0, false},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("parseBytes(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Fatalf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTierMode(t *testing.T) {
	cases := []struct {
		budget  int64
		hotFrac float64
		want    string // "" wants an error
	}{
		{0, 0.75, "single-level LRU"},
		{0, 1.5, "single-level LRU"}, // no budget: the share is unused
		{64 << 20, 0.75, "tiered, budget 67108864 bytes (hot 75%)"},
		{64 << 20, 1, "tiered, budget 67108864 bytes (hot 100%)"},
		{64 << 20, 0.5, "tiered, budget 67108864 bytes (hot 50%)"},
		{64 << 20, 1.5, ""},
		{64 << 20, 0, ""},
		{64 << 20, -0.25, ""},
		{64 << 20, math.NaN(), ""},
	}
	for _, tc := range cases {
		got, err := tierMode(tc.budget, tc.hotFrac)
		if (err == nil) != (tc.want != "") || got != tc.want {
			t.Fatalf("tierMode(%d, %v) = %q, %v; want %q", tc.budget, tc.hotFrac, got, err, tc.want)
		}
	}
}

// newShutdownFixture builds the smallest durable server worth shutting
// down: one worker (so the write-behind snapshot can be pinned behind a
// blocker job) and a snapshot directory.
func newShutdownFixture(t *testing.T, dir string) (*serve.Server, *data.Dataset) {
	t.Helper()
	ds := data.New(data.Config{
		Name: "serve-shutdown-test", NumClasses: 4, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 11,
	})
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(71)), ds.NumClasses, 1)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 72)
	s, err := serve.NewServer(build, base, ds, serve.Options{
		Workers:     1,
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
	return s, ds
}

// TestGracefulShutdownFlushesPendingSnapshots is the shutdown e2e: a
// SIGTERM delivered while a completed personalization's write-behind
// snapshot is still pinned in the worker queue must not lose the record —
// the old log.Fatal(http.ListenAndServe(...)) exit did exactly that. The
// test personalizes over real HTTP, wedges the single pool worker so the
// snapshot cannot land, signals the server, and asserts that after run()
// returns a fresh server on the same directory restores the tenant from
// disk with zero pruning jobs.
func TestGracefulShutdownFlushesPendingSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, ds := newShutdownFixture(t, dir)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)
	go func() {
		done <- serveShard(ln, api.NewMux(s, ds, api.Config{ShardID: "shutdown-test"}), "127.0.0.1:0", s, true, sigc, 10*time.Second)
	}()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/personalize", "application/json", strings.NewReader(`{"classes":[0,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/personalize status %d", resp.StatusCode)
	}

	// Wedge the lone pool worker so a not-yet-landed write-behind snapshot
	// stays pending across the signal: the shutdown path (Flush before
	// exit) must wait it out rather than abandon it.
	release := make(chan struct{})
	blocked := make(chan struct{})
	go s.Pool().Do(func() { close(blocked); <-release })
	<-blocked

	sigc <- syscall.SIGTERM
	close(release)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}

	// New connections must be refused after shutdown.
	if _, err := http.Get(url + "/stats"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}

	// Every completed personalization is on disk: a fresh server restores
	// it without a single pruning job.
	s2, _ := newShutdownFixture(t, dir)
	defer s2.Close()
	n, err := s2.Restore()
	if err != nil || n != 1 {
		t.Fatalf("post-shutdown restore: n=%d err=%v (stats %+v)", n, err, s2.Stats())
	}
	if st := s2.Stats(); st.Personalizations != 0 || st.RestoreHits != 1 {
		t.Fatalf("post-shutdown stats %+v (want pure restore)", st)
	}

	// The pprof listener must exit through Shutdown, not by erroring out.
	if text := logBuf.String(); strings.Contains(text, "pprof listener exited") {
		t.Fatalf("spurious pprof exit log:\n%s", text)
	}
}

// TestShutdownOnListenerError: when the listener dies on its own the
// teardown still flushes and run returns the cause.
func TestShutdownOnListenerError(t *testing.T) {
	dir := t.TempDir()
	s, ds := newShutdownFixture(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serveShard(ln, api.NewMux(s, ds, api.Config{}), "", s, true, sigc, 5*time.Second)
	}()
	// Give Serve a moment to pick the listener up, then yank it away.
	time.Sleep(50 * time.Millisecond)
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run returned nil after the listener died")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after the listener died")
	}
}

// TestCheckTenants: a population makeTenants cannot draw is refused before
// pre-training — 46 two-class tenants of 10 classes (C(10, 2) = 45), an
// 11-class set of 10 — and C(100, 50), past int64, still compares.
func TestCheckTenants(t *testing.T) {
	for _, tc := range []struct {
		tenants, classesPer, numClasses int
		ok                              bool
	}{
		{45, 2, 10, true}, {46, 2, 10, false},
		{1, 10, 10, true}, {2, 10, 10, false}, {1, 11, 10, false},
		{0, 2, 10, false}, {4, 0, 10, false},
		{1 << 62, 50, 100, true},
	} {
		if err := checkTenants(tc.tenants, tc.classesPer, tc.numClasses); (err == nil) != tc.ok {
			t.Errorf("checkTenants(%d, %d, %d) = %v, want ok %v", tc.tenants, tc.classesPer, tc.numClasses, err, tc.ok)
		}
	}
}

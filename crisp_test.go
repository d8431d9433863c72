package crisp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// TestPublicAPIEndToEnd exercises the facade exactly as README's quickstart
// does: dataset → model → pretrain → personalize.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "api-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 21,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 22)
	Pretrain(model, ds, 3, 10, 23)

	user := ds.UserClasses(24, 3)
	cfg := DefaultConfig(0.85)
	cfg.BlockSize = 4
	cfg.Iterations = 2
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 16
	cfg.LR = 0.01

	res := Personalize(model, ds, user, cfg)
	if res.Report.AchievedSparsity < 0.78 {
		t.Fatalf("achieved sparsity %v", res.Report.AchievedSparsity)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy %v", res.Accuracy)
	}
	if len(res.Classes) != 3 {
		t.Fatalf("classes %v", res.Classes)
	}
	// The pruned model must satisfy the hybrid invariants end to end.
	for _, p := range model.PrunableParams() {
		if err := sparsity.VerifyNM(p.MaskMatrixView(), cfg.NM); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

// TestFacadeServerWorkflow exercises the serving facade: pretrain once,
// then personalize and predict through the cached-engine server.
func TestFacadeServerWorkflow(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "server-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 41,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 42)
	Pretrain(model, ds, 2, 8, 43)

	cfg := DefaultConfig(0.7)
	cfg.BlockSize = 4
	cfg.Iterations = 1
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 8
	cfg.LR = 0.01
	srv, err := NewServer(model, ResNet, 1, 42, ds, ServerConfig{
		Prune: cfg, TrainPerClass: 6, TestPerClass: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	user := []int{2, 5}
	p, cached, err := srv.Personalize(user)
	if err != nil {
		t.Fatal(err)
	}
	if cached || p.Report.AchievedSparsity <= 0 {
		t.Fatalf("personalization %+v (cached=%v)", p.Report, cached)
	}
	if _, cached, _ = srv.Personalize([]int{5, 2}); !cached {
		t.Fatal("reordered class set must hit the cache")
	}
	test := ds.MakeSplit("server-predict", user, 4)
	preds, err := srv.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != test.Len() {
		t.Fatalf("%d predictions for %d samples", len(preds), test.Len())
	}
	// The base model must be untouched by personalization.
	for _, prm := range model.Params() {
		if prm.Mask != nil {
			t.Fatalf("%s: serving masked the universal model", prm.Name)
		}
	}
}

// TestFacadeWarmRestart checks the durable-serving facade: a server with
// SnapshotDir persists its personalizations, and a second NewServer on the
// same directory restores them without running any pruning jobs.
func TestFacadeWarmRestart(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "warm-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 51,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 52)
	Pretrain(model, ds, 2, 8, 53)

	cfg := DefaultConfig(0.7)
	cfg.BlockSize = 4
	cfg.Iterations = 1
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 8
	cfg.LR = 0.01
	scfg := ServerConfig{Prune: cfg, TrainPerClass: 6, TestPerClass: 4, SnapshotDir: t.TempDir()}

	srv1, err := NewServer(model, ResNet, 1, 52, ds, scfg)
	if err != nil {
		t.Fatal(err)
	}
	user := []int{2, 5}
	if _, _, err := srv1.Personalize(user); err != nil {
		t.Fatal(err)
	}
	test := ds.MakeSplit("warm-predict", user, 4)
	before, err := srv1.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Flush(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// NewServer warm-restarts from the snapshot directory by itself.
	srv2, err := NewServer(model, ResNet, 1, 52, ds, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	st := srv2.Stats()
	if st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("facade warm restart stats %+v (want 1 restore hit, 0 pruning jobs)", st)
	}
	after, err := srv2.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("prediction %d diverged across restart: %d vs %d", i, before[i], after[i])
		}
	}
	if st := srv2.Stats(); st.Personalizations != 0 {
		t.Fatalf("restored engine re-pruned: %+v", st)
	}
}

// TestFacadeMemoryBudget exercises the tiered cache through the public
// facade alone: a byte budget demotes the LRU tenant to a warm delta
// record, and its next request promotes it back with identical
// predictions — no internal/serve import required.
func TestFacadeMemoryBudget(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "budget-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 61,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 62)
	Pretrain(model, ds, 2, 8, 63)

	cfg := DefaultConfig(0.7)
	cfg.BlockSize = 4
	cfg.Iterations = 1
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 8
	cfg.LR = 0.01
	srv, err := NewServer(model, ResNet, 1, 62, ds, ServerConfig{
		Prune: cfg, TrainPerClass: 6, TestPerClass: 4,
		CacheSize:         1,
		MemoryBudgetBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	user := []int{2, 5}
	test := ds.MakeSplit("budget-predict", user, 4)
	before, err := srv.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	// A second tenant demotes the first out of the one-engine hot tier.
	if _, _, err := srv.Personalize([]int{1, 4}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Demotions != 1 || st.WarmEntries != 1 {
		t.Fatalf("budget did not tier: %+v", st)
	}
	if st.MemoryBudgetBytes != 1<<30 {
		t.Fatalf("budget not echoed in stats: %+v", st)
	}
	after, err := srv.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("prediction %d diverged across demote/promote: %d vs %d", i, before[i], after[i])
		}
	}
	if st := srv.Stats(); st.Promotions != 1 || st.PromoteErrors != 0 {
		t.Fatalf("warm promotion not taken: %+v", st)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(0.9)
	if cfg.Target != 0.9 {
		t.Fatalf("target %v", cfg.Target)
	}
	if cfg.NM != (NM{N: 2, M: 4}) {
		t.Fatalf("default NM %v", cfg.NM)
	}
}

// TestDeployRejectsInvalidConfig checks Deploy reports invalid options as
// an error instead of panicking (WithDefaults panics; Deploy validates
// first).
func TestDeployRejectsInvalidConfig(t *testing.T) {
	model := NewModel(ResNet, 4, 1, 1)
	if _, err := Deploy(model, Config{Target: 1.5}); err == nil {
		t.Fatal("invalid target must surface as an error")
	}
	if _, err := Deploy(model, Config{Momentum: 1.0}); err == nil {
		t.Fatal("invalid momentum must surface as an error")
	}
}

func TestDatasetConfigsExported(t *testing.T) {
	in := SynthImageNet()
	if in.NumClasses != 1000 {
		t.Fatalf("synth imagenet classes %d", in.NumClasses)
	}
	cf := SynthCIFAR()
	if cf.NumClasses != 100 {
		t.Fatalf("synth cifar classes %d", cf.NumClasses)
	}
}

func TestFacadeDeployWorkflow(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "deploy-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 31,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 32)
	Pretrain(model, ds, 2, 8, 33)
	user := ds.UserClasses(34, 3)
	cfg := DefaultConfig(0.8)
	cfg.BlockSize = 4
	cfg.Iterations = 2
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 16
	cfg.LR = 0.01
	Personalize(model, ds, user, cfg)

	// Checkpoint round trip through the facade.
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, model); err != nil {
		t.Fatal(err)
	}
	restored := NewModel(ResNet, ds.NumClasses, 1, 99)
	if err := LoadCheckpoint(&buf, restored); err != nil {
		t.Fatal(err)
	}

	// Deployment: compression + bit-identical sparse inference.
	dep, err := Deploy(restored, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Compression <= 1.5 {
		t.Fatalf("compression %v too small at κ=0.8", dep.Compression)
	}
	test := ds.MakeSplit("user-test", user, 4)
	x, _ := test.Sample(0)
	dense := restored.Logits(x, false)
	sparse := dep.Engine.Logits(x)
	if !tensor.Equal(dense, sparse, 1e-9) {
		t.Fatal("deployed engine disagrees with restored model")
	}
}

// TestCheckpointFailsClosed: a saved model loads back exactly, and a saved
// model with one bit flipped anywhere, cut short, or of the previous record
// version, is an error that leaves the destination model as it was.
func TestCheckpointFailsClosed(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "ckpt-test", NumClasses: 6, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 41,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 42)
	Pretrain(model, ds, 1, 4, 43)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, model); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// An unpruned model's saved bytes hold every weight and statistic bit.
	bits := func(m *Classifier) string {
		var b bytes.Buffer
		if err := SaveCheckpoint(&b, m); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	fresh := func() *Classifier { return NewModel(ResNet, ds.NumClasses, 1, 99) }
	before := bits(fresh())
	// rejects loads a damaged stream into a fresh model and reports what,
	// if anything, the load let through.
	rejects := func(what string, stream []byte) {
		t.Helper()
		dst := fresh()
		if err := LoadCheckpoint(bytes.NewReader(stream), dst); err == nil {
			t.Errorf("%s: the model loaded", what)
		}
		if bits(dst) != before {
			t.Errorf("%s: the load changed the model", what)
		}
	}
	const flips = 50
	for i := range flips {
		at := i * (len(saved) - 1) / (flips - 1)
		mut := append([]byte(nil), saved...)
		mut[at] ^= 1 << (i % 8)
		rejects(fmt.Sprintf("bit %d of byte %d of %d flipped", i%8, at, len(saved)), mut)
	}
	for _, cut := range []int{0, 5, len(saved) / 2, len(saved) - 1} {
		rejects(fmt.Sprintf("cut to %d of %d bytes", cut, len(saved)), saved[:cut])
	}
	// A model saved by an older build, whose record is version 4 (the delta
	// under the full pruning report), fails at the header and is saved again.
	v4 := append([]byte(nil), saved...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	rejects("a v4 model stream", v4)

	// The saved model is unpruned, so a mask the destination holds must go.
	dst := fresh()
	dst.PrunableParams()[0].EnsureMask()
	if err := LoadCheckpoint(bytes.NewReader(saved), dst); err != nil {
		t.Fatal(err)
	}
	if bits(dst) != string(saved) {
		t.Fatal("the loaded model differs from the saved one")
	}
	x, _ := ds.MakeSplit("ckpt-test", []int{0, 1}, 1).Sample(0)
	if !tensor.Equal(model.Logits(x, false), dst.Logits(x, false), 0) {
		t.Fatal("the loaded model computes different logits")
	}
}

// TestFacadeQuantizedServing: the public int8 serving path — a server
// configured with PrecisionInt8 personalizes, serves predictions from
// quantized engines, and reports the measured agreement per tenant and in
// the aggregate stats.
func TestFacadeQuantizedServing(t *testing.T) {
	ds := NewDataset(data.Config{
		Name: "server-int8-test", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 44,
	})
	model := NewModel(ResNet, ds.NumClasses, 1, 45)
	Pretrain(model, ds, 2, 8, 46)

	cfg := DefaultConfig(0.7)
	cfg.BlockSize = 4
	cfg.Iterations = 1
	cfg.FinetuneEpochs = 1
	cfg.BatchSize = 8
	cfg.LR = 0.01
	srv, err := NewServer(model, ResNet, 1, 45, ds, ServerConfig{
		Prune: cfg, TrainPerClass: 6, TestPerClass: 4,
		Precision: PrecisionInt8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	user := []int{2, 5}
	p, _, err := srv.Personalize(user)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Engine().Precision(); got != PrecisionInt8 {
		t.Fatalf("engine precision %v, want int8", got)
	}
	if p.Agreement <= 0 || p.Agreement > 1 {
		t.Fatalf("agreement %v outside (0, 1]", p.Agreement)
	}
	test := ds.MakeSplit("server-int8-predict", user, 4)
	preds, err := srv.Predict(user, test.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != test.Len() {
		t.Fatalf("%d predictions for %d samples", len(preds), test.Len())
	}
	st := srv.Stats()
	if st.Precision != "int8" || st.AgreementSamples == 0 {
		t.Fatalf("stats %+v", st)
	}
}

package crisp_test

import (
	"fmt"
	"log"
	"slices"

	crisp "repro"
	"repro/internal/data"
	"repro/internal/sparsity"
)

// ExamplePersonalize is README's quick start: pre-train a universal model,
// prune it to one user's classes with the hybrid 2:4 + block pattern, and
// check the pattern on every layer.
func ExamplePersonalize() {
	ds := crisp.NewDataset(data.Config{
		Name: "quickstart", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 21,
	})
	model := crisp.NewModel(crisp.ResNet, ds.NumClasses, 1, 22)
	crisp.Pretrain(model, ds, 3, 10, 23) // or crisp.LoadCheckpoint

	cfg := crisp.DefaultConfig(0.85) // κ = 0.85, 2:4 inside the kept blocks
	cfg.BlockSize, cfg.Iterations, cfg.FinetuneEpochs = 4, 2, 1
	cfg.BatchSize, cfg.LR = 16, 0.01
	result := crisp.Personalize(model, ds, ds.UserClasses(24, 3), cfg)
	fmt.Printf("sparsity %.2f on %d classes\n", result.Report.AchievedSparsity, len(result.Classes))
	for _, p := range model.PrunableParams() {
		if err := sparsity.VerifyNM(p.MaskMatrixView(), cfg.NM); err != nil {
			log.Fatalf("%s: %v", p.Name, err)
		}
	}
	fmt.Println("2:4 holds on every layer")
	// Output:
	// sparsity 0.85 on 3 classes
	// 2:4 holds on every layer
}

// ExampleNewServer is README's serving block: a server under a byte budget
// with one hot engine caches a class set in any order, demotes the least
// recently used tenant to a warm delta record when a second one arrives,
// and promotes it back with the same predictions, never masking the
// universal model.
func ExampleNewServer() {
	ds := crisp.NewDataset(data.Config{
		Name: "quickstart", NumClasses: 8, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 21,
	})
	cfg := crisp.DefaultConfig(0.85)
	cfg.BlockSize, cfg.Iterations, cfg.FinetuneEpochs = 4, 2, 1
	cfg.BatchSize, cfg.LR = 16, 0.01

	universal := crisp.NewModel(crisp.ResNet, ds.NumClasses, 1, 22)
	crisp.Pretrain(universal, ds, 3, 10, 23)
	srv, err := crisp.NewServer(universal, crisp.ResNet, 1, 22, ds, crisp.ServerConfig{
		Prune: cfg, TrainPerClass: 6, TestPerClass: 4,
		CacheSize: 1, MemoryBudgetBytes: 1 << 30, // one hot engine, the rest warm
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	user := []int{2, 5}
	p, cached, err := srv.Personalize(user)
	if err != nil {
		log.Fatal(err)
	}
	_, again, err := srv.Personalize([]int{5, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparsity %.2f, cached: %v then %v\n", p.Report.AchievedSparsity, cached, again)
	batch := ds.MakeSplit("predict", user, 4).X // [B,C,H,W]
	before, err := srv.Predict(user, batch)
	if err != nil {
		log.Fatal(err)
	}

	// A second tenant demotes the first to a warm delta record; the first's
	// next request promotes it back.
	if _, _, err := srv.Personalize([]int{1, 4}); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Println("demotions:", st.Demotions, "warm entries:", st.WarmEntries, "budget:", st.MemoryBudgetBytes)
	after, err := srv.Predict(user, batch)
	if err != nil {
		log.Fatal(err)
	}
	st = srv.Stats()
	fmt.Println("promotions:", st.Promotions, "promote errors:", st.PromoteErrors)
	fmt.Println(len(after), "predictions, unchanged:", slices.Equal(before, after))
	masked := 0
	for _, p := range universal.Params() {
		if p.Mask != nil {
			masked++
		}
	}
	fmt.Println("masked universal parameters:", masked)
	// Output:
	// sparsity 0.85, cached: false then true
	// demotions: 1 warm entries: 1 budget: 1073741824
	// promotions: 1 promote errors: 0
	// 8 predictions, unchanged: true
	// masked universal parameters: 0
}

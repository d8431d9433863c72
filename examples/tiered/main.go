// Tiered serving: many tenants under one memory budget. A full-copy
// engine cache would hold a complete pruned model per tenant beside its
// compiled engine; here a hot tenant is the engine plus a delta over the
// universal weights, and with ServerConfig.MemoryBudgetBytes set the
// cache becomes a hot/warm/cold hierarchy — compiled engines, bare delta
// records, disk snapshots. This example measures what the full copies would
// cost, keeps every tenant resident in a fraction of it, and round-trips
// one tenant through demotion and promotion with identical predictions.
package main

import (
	"fmt"

	crisp "repro"
	"repro/internal/data"
	"repro/internal/inference"
)

func main() {
	ds := crisp.NewDataset(data.Config{
		Name: "tiered", NumClasses: 12, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 17,
	})

	fmt.Println("pre-training the universal model (once)...")
	model := crisp.NewModel(crisp.ResNet, ds.NumClasses, 1, 18)
	crisp.Pretrain(model, ds, 5, 12, 19)

	cfg := crisp.DefaultConfig(0.85)
	cfg.BlockSize = 4
	cfg.Iterations = 2
	cfg.FinetuneEpochs = 2
	cfg.BatchSize = 8
	cfg.LR = 0.01

	tenants := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}}

	// What one full copy costs: a pruned clone's dense weights, gradients
	// and masks (the same for every tenant of one architecture).
	clone := crisp.NewModel(crisp.ResNet, ds.NumClasses, 1, 18)
	model.CloneWeightsTo(clone)
	crisp.Personalize(clone, ds, tenants[0], cfg)
	fullBytes := int64(len(tenants)) * inference.ModelBytes(clone)

	// Pass 1: no budget — every tenant hot. Their engines complete the
	// full-copy figure; their HotBytes is what the budget will undercut.
	full, err := crisp.NewServer(model, crisp.ResNet, 1, 18, ds, crisp.ServerConfig{
		Prune: cfg, TrainPerClass: 12, TestPerClass: 6,
	})
	if err != nil {
		panic(err)
	}
	for _, u := range tenants {
		p, _, err := full.Personalize(u)
		if err != nil {
			panic(err)
		}
		fullBytes += p.Engine().MemoryFootprint()
	}
	hotBytes := full.Stats().HotBytes
	full.Close()
	fmt.Printf("full-copy cache: %d tenants in %d bytes\n", len(tenants), fullBytes)
	fmt.Printf("all-hot cache:   %d tenants in %d bytes (an engine each, %.1fx denser)\n",
		len(tenants), hotBytes, float64(fullBytes)/float64(hotBytes))

	// Pass 2: the same tenants under seven tenths of the all-hot bytes, three
	// fifths of that for the hot tier — room for two hot engines, the rest
	// demote to warm records (each the tenant's delta).
	srv, err := crisp.NewServer(model, crisp.ResNet, 1, 18, ds, crisp.ServerConfig{
		Prune: cfg, TrainPerClass: 12, TestPerClass: 6,
		MemoryBudgetBytes: hotBytes * 7 / 10, HotFraction: 0.6,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	for _, u := range tenants {
		if _, _, err := srv.Personalize(u); err != nil {
			panic(err)
		}
	}
	st := srv.Stats()
	resident := st.HotBytes + st.WarmBytes
	fmt.Printf("tiered cache:    %d hot + %d warm tenants in %d bytes (%.1fx denser)\n",
		st.CachedEngines, st.WarmEntries, resident, float64(fullBytes)/float64(resident))

	// A warm tenant promotes back bit-identically on its next request.
	probe := tenants[0]
	split := ds.MakeSplit("tiered-probe", probe, 4)
	preds, err := srv.Predict(probe, split.X)
	if err != nil {
		panic(err)
	}
	correct := 0
	for i, p := range preds {
		if p == split.Labels[i] {
			correct++
		}
	}
	st = srv.Stats()
	fmt.Printf("tenant %v promoted from the warm tier (%d promotions, %d errors): %d/%d correct\n",
		probe, st.Promotions, st.PromoteErrors, correct, len(preds))
}

// Quickstart: prune a small model with CRISP in a few lines.
//
// A universal 20-class model is pre-trained on a synthetic dataset, then
// personalized to 4 user classes at 85% sparsity with the paper's hybrid
// 2:4 + block pattern.
package main

import (
	"fmt"

	crisp "repro"
	"repro/internal/data"
)

func main() {
	// 1. A synthetic dataset (stands in for ImageNet; see package data).
	ds := crisp.NewDataset(data.Config{
		Name: "quickstart", NumClasses: 20, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 42,
	})

	// 2. A universal model over all 20 classes.
	model := crisp.NewModel(crisp.ResNet, ds.NumClasses, 2, 7)
	fmt.Println("pre-training the universal model...")
	crisp.Pretrain(model, ds, 5, 12, 8)

	// 3. Personalize: the user only ever sees 4 classes.
	user := ds.UserClasses(9, 4)
	cfg := crisp.DefaultConfig(0.85) // 85% global sparsity, 2:4 + blocks
	cfg.BlockSize = 4
	cfg.Iterations = 3
	cfg.FinetuneEpochs = 2

	fmt.Printf("personalizing to classes %v...\n", user)
	res := crisp.Personalize(model, ds, user, cfg)

	// 4. Results.
	fmt.Println()
	fmt.Println(res.Report.String())
	fmt.Printf("held-out accuracy on the user's classes: %.1f%%\n", 100*res.Accuracy)
	fmt.Printf("model FLOPs reduced to %.0f%% of dense\n", 100*res.Report.FLOPsRatio)
}

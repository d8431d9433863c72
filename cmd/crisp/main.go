// Command crisp runs the full CRISP pipeline end to end on the synthetic
// substrate: pre-train a universal model, personalize it to a set of user
// classes with hybrid structured pruning, and report sparsity, FLOPs and
// accuracy against the dense fine-tuned reference.
//
// Usage:
//
//	crisp -model resnet-s -classes 10 -target 0.9 -nm 2:4 -block 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	crisp "repro"
	"repro/internal/data"
	"repro/internal/export"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp: ")

	var (
		model    = flag.String("model", "resnet-s", "model family: resnet-s, vgg-s, mobilenet-s, transformer-s")
		classes  = flag.Int("classes", 10, "number of user-preferred classes")
		target   = flag.Float64("target", 0.9, "global sparsity target κ")
		nmFlag   = flag.String("nm", "2:4", "fine-grained N:M pattern")
		block    = flag.Int("block", 4, "block size B")
		iters    = flag.Int("iterations", 4, "pruning iterations n")
		epochs   = flag.Int("finetune-epochs", 2, "fine-tune epochs δ per iteration")
		pretrain = flag.Int("pretrain-epochs", 6, "universal pre-training epochs")
		seed     = flag.Int64("seed", 1, "random seed")
		saveCkpt = flag.String("save", "", "write the pruned model to this path: its masks, kept weights and norm statistics, checksummed (pruned weights are not kept)")
		loadCkpt = flag.String("load", "", "load a model written by -save instead of pre-training (a corrupt file is an error)")
	)
	flag.Parse()

	nm, err := sparsity.ParseNM(*nmFlag)
	if err != nil {
		log.Fatal(err)
	}
	family := models.Family(*model)
	switch family {
	case models.ResNet, models.VGG, models.MobileNet, models.Transformer:
	default:
		log.Fatalf("unknown model %q (want resnet-s, vgg-s, mobilenet-s or transformer-s)", *model)
	}

	// A mid-scale synthetic dataset: large enough to be non-trivial, small
	// enough for a laptop run.
	ds := crisp.NewDataset(data.Config{
		Name: "synth", NumClasses: 40, Channels: 3, H: 10, W: 10,
		Noise: 0.3, Jitter: 1, Seed: *seed,
	})
	if *classes < 1 || *classes > ds.NumClasses {
		log.Fatalf("classes must be in [1,%d]", ds.NumClasses)
	}

	modelClf := crisp.NewModel(family, ds.NumClasses, widthFor(family), *seed+1)
	if *loadCkpt != "" {
		fmt.Printf("loading checkpoint %s...\n", *loadCkpt)
		f, err := os.Open(*loadCkpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := crisp.LoadCheckpoint(f, modelClf); err != nil {
			log.Fatal(err)
		}
		f.Close()
	} else {
		fmt.Printf("pre-training universal %s on %d classes...\n", family, ds.NumClasses)
		crisp.Pretrain(modelClf, ds, *pretrain, 16, *seed+2)
	}

	user := ds.UserClasses(*seed+3, *classes)
	fmt.Printf("user classes: %v\n", user)

	// Dense fine-tuned reference with a matched epoch budget.
	ref := crisp.NewModel(family, ds.NumClasses, widthFor(family), *seed+1)
	modelClf.CloneWeightsTo(ref)
	train := ds.MakeSplit("user-train", user, 32)
	test := ds.MakeSplit("user-test", user, 16)
	opt := nn.NewSGD(0.01, 0.9, 4e-5)
	pruner.Finetune(ref, train, *iters**epochs+*epochs, 16, opt, rand.New(rand.NewSource(*seed+4)))
	denseAcc := ref.Accuracy(test.X, test.Labels)

	cfg := crisp.DefaultConfig(*target)
	cfg.NM = nm
	cfg.BlockSize = *block
	cfg.Iterations = *iters
	cfg.FinetuneEpochs = *epochs
	cfg.Seed = *seed + 5

	fmt.Printf("pruning with CRISP (%s, B=%d, κ=%.2f, %d iterations)...\n", nm, *block, *target, *iters)
	res := crisp.Personalize(modelClf, ds, user, cfg)

	fmt.Println()
	fmt.Println(res.Report.String())
	fmt.Printf("accuracy: crisp %.3f vs dense fine-tuned %.3f\n", res.Accuracy, denseAcc)
	fmt.Println("\nper-layer state:")
	for _, ls := range res.Report.Layers {
		keep := "n:m only"
		if ls.KeptBlockCols >= 0 {
			keep = fmt.Sprintf("%d/%d block cols", ls.KeptBlockCols, ls.GridCols)
		}
		fmt.Printf("  %-24s %4dx%-5d sparsity %.3f  (%s)\n", ls.Name, ls.Rows, ls.Cols, ls.Sparsity, keep)
	}

	// Validate that the compressed representation computes identically and
	// report the deployed size.
	if eng, err := inference.New(modelClf, *block, nm); err == nil {
		x, _ := test.Sample(0)
		dense := modelClf.Logits(x, false)
		sparse := eng.Logits(x)
		match := tensor.Equal(dense, sparse, 1e-9)
		fmt.Printf("\nsparse inference engine: %d compressed layers, output match: %v\n",
			eng.CompressedLayers, match)
	}
	if ms, err := export.Sizes(modelClf, *block, nm, 8); err == nil {
		fmt.Printf("deployed size at 8-bit: dense %d B → crisp %d B (%.1fx compression)\n",
			ms.DenseBytes, ms.FormatBytes["crisp"], ms.CompressionRatio("crisp"))
	}

	if *saveCkpt != "" {
		f, err := os.Create(*saveCkpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := crisp.SaveCheckpoint(f, modelClf); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *saveCkpt)
	}
}

func widthFor(f models.Family) int {
	if f == models.MobileNet {
		return 1
	}
	return 2
}

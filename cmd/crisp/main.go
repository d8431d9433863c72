// Command crisp is the repository's one command line. Its subcommands walk
// the paper's workflow — pre-train a universal model, prune it to one
// user's classes with class-aware hybrid N:M + block sparsity, deploy it on
// CRISP-STC — and serve, route and load-test the personalized models:
//
//	crisp prune    personalize one model end to end and report sparsity, FLOPs and accuracy
//	crisp sim      simulate a network's layers on the four accelerator models
//	crisp figures  regenerate the paper's tables and figures as text tables
//	crisp serve    serve personalizations over HTTP, standalone or as a cluster shard
//	crisp router   route tenants to crisp serve shards on a consistent-hash ring
//	crisp load     replay a seeded multi-tenant trace against an in-process fleet
//
// With no command or an unknown one, crisp prints this list and exits 2.
// Each subcommand parses its own flags (crisp <command> -h lists them) and
// logs to stderr under the prefix "crisp <command>: ".
//
// Usage of prune (pre-train, prune with CRISP, compare with the dense
// fine-tuned reference; -save / -load write and read the pruned model):
//
//	crisp prune -model resnet-s -classes 10 -target 0.9 -nm 2:4 -block 4
//
// Usage of sim (per-layer latency and energy on dense, NVIDIA STC, DSTC and
// CRISP-STC; -trace adds the discrete-event tile trace):
//
//	crisp sim -network resnet50 -nm 2:4 -kept 0.3 -block 64
//	crisp sim -network resnet50 -layer conv4_2.b -trace
//
// Usage of figures (exp.Figures is the experiment index; -fig selects from
// it):
//
//	crisp figures                # all figures, quick scale, GOMAXPROCS workers
//	crisp figures -fig 8         # one figure
//	crisp figures -fig ablations # the five ablation studies
//	crisp figures -full          # full scale (slower)
//	crisp figures -workers 1     # sequential run
//
// Usage of serve (endpoints in internal/api):
//
//	crisp serve -addr :8080 -num-classes 20 -target 0.85 -precision int8 -snapshot-dir /var/lib/crisp -shard-id shard-0
//
// Usage of router (the shards share one snapshot directory, the handoff
// channel):
//
//	crisp router -addr :8090 \
//	  -shards s1=127.0.0.1:8080,s2=127.0.0.1:8081,s3=127.0.0.1:8082
//
// Usage of load (the second run is the FIFO baseline; -baseline gates the
// report on an SLO baseline and exits 1 on a violation):
//
//	crisp load -seed 1 -rps 300 -duration 20s -tenants 24 -out report.json
//	crisp load -seed 1 -rps 300 -duration 20s -tenants 24 -fifo -out fifo.json
//	crisp load -seed 1 -rps 200 -duration 12s -tenants 12 -out SLO_report.json -baseline SLO_baseline.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"time"

	crisp "repro"
	"repro/internal/accel"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

var commands = []struct {
	name, about string
	run         func(args []string) error
}{
	{"prune", "personalize one model end to end and report sparsity, FLOPs and accuracy", runPrune},
	{"sim", "simulate a network's layers on the four accelerator models", runSim},
	{"figures", "regenerate the paper's tables and figures as text tables", runFigures},
	{"serve", "serve personalizations over HTTP, standalone or as a cluster shard", runServe},
	{"router", "route tenants to crisp serve shards on a consistent-hash ring", runRouter},
	{"load", "replay a seeded multi-tenant trace against an in-process fleet", runLoad},
}

func main() {
	log.SetFlags(0)
	run, err := command(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "crisp: %v\n\nusage: crisp <command> [flags]\n\ncommands:\n", err)
		for _, c := range commands {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.about)
		}
		os.Exit(2)
	}
	log.SetPrefix("crisp " + os.Args[1] + ": ")
	if err := run(os.Args[2:]); err != nil {
		log.Fatal(err)
	}
}

// command returns the subcommand args[0] names.
func command(args []string) (func([]string) error, error) {
	if len(args) == 0 {
		return nil, errors.New("no command")
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run, nil
		}
	}
	return nil, fmt.Errorf("unknown command %q", args[0])
}

// parseFamily reads a -model value.
func parseFamily(s string) (models.Family, error) {
	switch f := models.Family(s); f {
	case models.ResNet, models.VGG, models.MobileNet, models.Transformer:
		return f, nil
	}
	return "", fmt.Errorf("unknown -model %q (want resnet-s, vgg-s, mobilenet-s or transformer-s)", s)
}

// parsePrecision reads one engine precision: serve's -precision, or one
// entry of load's -precisions.
func parsePrecision(s string) (inference.Precision, error) {
	switch s {
	case "float32", "float", "fp32":
		return inference.Float32, nil
	case "int8", "i8":
		return inference.Int8, nil
	}
	return 0, fmt.Errorf("unknown precision %q (want float32 or int8)", s)
}

// runPrune runs the full CRISP pipeline end to end on the synthetic
// substrate: pre-train a universal model, personalize it to a set of user
// classes with hybrid structured pruning, and report sparsity, FLOPs and
// accuracy against the dense fine-tuned reference.
func runPrune(args []string) error {
	fs := flag.NewFlagSet("crisp prune", flag.ExitOnError)
	var (
		model    = fs.String("model", "resnet-s", "model family: resnet-s, vgg-s, mobilenet-s, transformer-s")
		classes  = fs.Int("classes", 10, "number of user-preferred classes")
		target   = fs.Float64("target", 0.9, "global sparsity target κ")
		nmFlag   = fs.String("nm", "2:4", "fine-grained N:M pattern")
		block    = fs.Int("block", 4, "block size B")
		iters    = fs.Int("iterations", 4, "pruning iterations n")
		epochs   = fs.Int("finetune-epochs", 2, "fine-tune epochs δ per iteration")
		pretrain = fs.Int("pretrain-epochs", 6, "universal pre-training epochs")
		seed     = fs.Int64("seed", 1, "random seed")
		saveCkpt = fs.String("save", "", "write the pruned model to this path: its masks, kept weights and norm statistics, checksummed (pruned weights are not kept)")
		loadCkpt = fs.String("load", "", "load a model written by -save instead of pre-training (a corrupt file is an error)")
	)
	fs.Parse(args)

	nm, err := sparsity.ParseNM(*nmFlag)
	if err != nil {
		return err
	}
	family, err := parseFamily(*model)
	if err != nil {
		return err
	}
	cfg := crisp.DefaultConfig(*target)
	cfg.NM = nm
	cfg.BlockSize = *block
	cfg.Iterations = *iters
	cfg.FinetuneEpochs = *epochs
	cfg.Seed = *seed + 5
	if err := cfg.Validate(); err != nil {
		return err
	}

	// A mid-scale synthetic dataset: large enough to be non-trivial, small
	// enough for a laptop run.
	ds := crisp.NewDataset(data.Config{
		Name: "synth", NumClasses: 40, Channels: 3, H: 10, W: 10,
		Noise: 0.3, Jitter: 1, Seed: *seed,
	})
	if *classes < 1 || *classes > ds.NumClasses {
		return fmt.Errorf("classes must be in [1,%d]", ds.NumClasses)
	}

	modelClf := crisp.NewModel(family, ds.NumClasses, widthFor(family), *seed+1)
	if *loadCkpt != "" {
		fmt.Printf("loading checkpoint %s...\n", *loadCkpt)
		f, err := os.Open(*loadCkpt)
		if err != nil {
			return err
		}
		if err := crisp.LoadCheckpoint(f, modelClf); err != nil {
			return err
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
	dep, err := crisp.Deploy(modelClf, cfg)
	if err != nil {
		return err
	}
	x, _ := test.Sample(0)
	match := tensor.Equal(modelClf.Logits(x, false), dep.Engine.Logits(x), 1e-9)
	fmt.Printf("\nsparse inference engine: %d compressed layers, output match: %v\n",
		dep.Engine.CompressedLayers, match)
	fmt.Printf("deployed size at 8-bit: dense %d B → crisp %d B (%.1fx compression)\n",
		dep.DenseBytes, dep.CRISPBytes, dep.Compression)

	if *saveCkpt != "" {
		f, err := os.Create(*saveCkpt)
		if err != nil {
			return err
		}
		if err := errors.Join(crisp.SaveCheckpoint(f, modelClf), f.Close()); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *saveCkpt)
	}
	return nil
}

func widthFor(f models.Family) int {
	if f == models.MobileNet {
		return 1
	}
	return 2
}

// runSim drives the accelerator simulator directly: pick a network and
// sparsity configuration and print per-layer latency/energy on the four
// simulated architectures, optionally with the discrete-event tile trace of
// a specific layer.
func runSim(args []string) error {
	fs := flag.NewFlagSet("crisp sim", flag.ExitOnError)
	var (
		network = fs.String("network", "resnet50", "network: resnet50, vgg16, mobilenetv2")
		layer   = fs.String("layer", "", "only simulate the named layer")
		nmFlag  = fs.String("nm", "2:4", "fine-grained N:M pattern")
		kept    = fs.Float64("kept", 0.3, "kept block-column fraction K'/K")
		block   = fs.Int("block", 64, "block size B")
		actDen  = fs.Float64("act-density", 0.6, "activation density for DSTC")
		trace   = fs.Bool("trace", false, "print the tile-level trace (dense and crisp-stc)")
		repOnly = fs.Bool("representative", false, "restrict ResNet-50 to the representative layer set")
	)
	fs.Parse(args)

	nm, err := sparsity.ParseNM(*nmFlag)
	if err != nil {
		return err
	}
	if *block < 1 {
		return fmt.Errorf("-block must be >= 1, got %d", *block)
	}
	// The descriptor DSTC runs; every other architecture runs it on dense
	// activations.
	sp := accel.Sparsity{NM: nm, KeptColFrac: *kept, BlockSize: *block, ActDensity: *actDen}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("-kept %v, -act-density %v: %w", *kept, *actDen, err)
	}
	sp.ActDensity = 1
	var shapes []models.LayerShape
	switch *network {
	case "resnet50":
		if *repOnly {
			shapes = models.RepresentativeResNet50Layers()
		} else {
			shapes = models.ResNet50Shapes()
		}
	case "vgg16":
		shapes = models.VGG16Shapes()
	case "mobilenetv2":
		shapes = models.MobileNetV2Shapes()
	default:
		return fmt.Errorf("unknown network %q", *network)
	}
	if *layer != "" {
		var filtered []models.LayerShape
		for _, l := range shapes {
			if l.Name == *layer {
				filtered = append(filtered, l)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("layer %q not found in %s", *layer, *network)
		}
		shapes = filtered
	}

	hw := accel.EdgeHW()
	e := energy.Default()
	dense := accel.NewDense(hw, e)
	archs := []accel.Arch{
		accel.NewNvidiaSTC(hw, e),
		accel.NewDSTC(hw, e),
		accel.NewCRISPSTC(hw, e),
	}

	fmt.Printf("%s · %s + B=%d blocks · kept %.0f%% of block columns (weight density %.3f)\n\n",
		*network, nm, *block, 100**kept, sp.WeightDensity())
	fmt.Printf("%-12s %-12s %12s %9s %12s %9s\n", "layer", "arch", "cycles", "speedup", "energy(uJ)", "en-gain")
	for _, l := range shapes {
		spL := sp
		if l.Kind == models.KindDepthwise {
			spL.KeptColFrac = 1 // block-exempt
		}
		d := dense.Simulate(l, accel.Dense())
		fmt.Printf("%-12s %-12s %12.0f %8.1fx %12.1f %8.1fx\n", l.Name, "dense", d.Cycles, 1.0, d.EnergyUJ(), 1.0)
		for _, a := range archs {
			spA := spL
			if a.Name() == "dstc" {
				spA.ActDensity = *actDen
			}
			p := a.Simulate(l, spA)
			fmt.Printf("%-12s %-12s %12.0f %8.1fx %12.1f %8.1fx\n",
				l.Name, a.Name(), p.Cycles, d.Cycles/p.Cycles, p.EnergyUJ(), d.EnergyUJ()/p.EnergyUJ())
		}
		if *trace {
			for _, arch := range []string{"dense", "crisp-stc"} {
				spT := spL
				if arch == "dense" {
					spT = accel.Dense()
				}
				tr, err := accel.TileSim(hw, arch, l, spT)
				if err != nil {
					return err
				}
				fmt.Printf("  tile trace: %s\n", tr)
				for _, ev := range tr.Events[:min(4, len(tr.Events))] {
					fmt.Printf("    tile %2d: load [%8.0f → %8.0f)  compute [%8.0f → %8.0f)\n",
						ev.Index, ev.LoadStart, ev.LoadEnd, ev.ComputeStart, ev.ComputeEnd)
				}
				if len(tr.Events) > 4 {
					fmt.Printf("    … %d more tiles\n", len(tr.Events)-4)
				}
			}
		}
		fmt.Println()
	}
	return nil
}

// runFigures regenerates the CRISP paper's tables and figures as text
// tables on the reproduction substrate. At most -workers figures run at
// once, each started in suite order, so a multi-core machine regenerates
// the suite concurrently; a table prints as soon as it and every earlier
// one are done.
func runFigures(args []string) error {
	fs := flag.NewFlagSet("crisp figures", flag.ExitOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 1,2,3,4,7,8,ablations,ext,mem,validate,all or an exact name like ablation-C")
		full    = fs.Bool("full", false, "run the full-scale configuration")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "figures run at once (0 = GOMAXPROCS, 1 = sequential)")
	)
	fs.Parse(args)

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}
	h := exp.NewHarness(exp.Config{Scale: scale, Seed: *seed})

	figs, err := exp.Select(exp.Figures(), *fig)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// Each worker takes the next figure in suite order; done[i] closes when
	// figure i's table and generation time are in place.
	next := make(chan int, len(figs))
	for i := range figs {
		next <- i
	}
	close(next)
	tables := make([]*exp.Table, len(figs))
	durs := make([]time.Duration, len(figs))
	done := make([]chan struct{}, len(figs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	start := time.Now()
	for w := 0; w < *workers; w++ {
		go func() {
			for i := range next {
				t0 := time.Now()
				tables[i] = figs[i].Run(h)
				durs[i] = time.Since(t0)
				close(done[i])
			}
		}()
	}

	// Print in suite order as figures complete, so an interrupted -full run
	// keeps the artifacts already generated.
	for i, f := range figs {
		<-done[i]
		fmt.Println(tables[i])
		fmt.Printf("(%s generated in %.1fs)\n\n", f.Name, durs[i].Seconds())
	}
	fmt.Printf("(%d artifacts in %.1fs on %d workers)\n", len(figs), time.Since(start).Seconds(), *workers)
	return nil
}

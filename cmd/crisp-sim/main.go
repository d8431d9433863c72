// Command crisp-sim drives the accelerator simulator directly: pick a
// network and sparsity configuration and print per-layer latency/energy on
// the four simulated architectures, optionally with the discrete-event tile
// trace of a specific layer.
//
// Usage:
//
//	crisp-sim -network resnet50 -nm 2:4 -kept 0.3 -block 64
//	crisp-sim -network resnet50 -layer conv4_2.b -trace
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/sparsity"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-sim: ")
	var (
		network = flag.String("network", "resnet50", "network: resnet50, vgg16, mobilenetv2")
		layer   = flag.String("layer", "", "only simulate the named layer")
		nmFlag  = flag.String("nm", "2:4", "fine-grained N:M pattern")
		kept    = flag.Float64("kept", 0.3, "kept block-column fraction K'/K")
		block   = flag.Int("block", 64, "block size B")
		actDen  = flag.Float64("act-density", 0.6, "activation density for DSTC")
		trace   = flag.Bool("trace", false, "print the tile-level trace (dense and crisp-stc)")
		repOnly = flag.Bool("representative", false, "restrict ResNet-50 to the representative layer set")
	)
	flag.Parse()

	nm, err := sparsity.ParseNM(*nmFlag)
	if err != nil {
		log.Fatal(err)
	}
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
		log.Fatalf("unknown network %q", *network)
	}
	if *layer != "" {
		var filtered []models.LayerShape
		for _, l := range shapes {
			if l.Name == *layer {
				filtered = append(filtered, l)
			}
		}
		if len(filtered) == 0 {
			log.Fatalf("layer %q not found in %s", *layer, *network)
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

	sp := accel.Sparsity{NM: nm, KeptColFrac: *kept, BlockSize: *block, ActDensity: 1}
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
					log.Fatal(err)
				}
				fmt.Printf("  tile trace: %s\n", tr)
				for _, ev := range head(tr.Events, 4) {
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
}

// head returns the first n events.
func head(evs []accel.TileEvent, n int) []accel.TileEvent {
	if len(evs) < n {
		return evs
	}
	return evs[:n]
}

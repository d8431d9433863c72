package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/sparsity"
)

// NetworkRow is one (network, architecture) end-to-end hardware point.
type NetworkRow struct {
	Network  string
	Arch     string
	Cycles   float64
	Speedup  float64
	EnergyUJ float64
	EGain    float64
}

// NetworkTable extends Fig. 8 from representative layers to entire
// networks: the exact full-size layer lists of ResNet-50, VGG-16 and
// MobileNetV2 are summed over all layers for each simulated architecture
// under the 2:4 + block hybrid at the depth-dependent sparsity profile.
// Depthwise layers (MobileNetV2) carry N:M only, matching the pruner's
// block exemption.
func (h *Harness) NetworkTable() ([]NetworkRow, *Table) {
	hw := accel.EdgeHW()
	e := energy.Default()
	dense := accel.NewDense(hw, e)
	archs := []accel.Arch{
		accel.NewNvidiaSTC(hw, e),
		accel.NewDSTC(hw, e),
		accel.NewCRISPSTC(hw, e),
	}
	nm := sparsity.NM{N: 2, M: 4}

	nets := []struct {
		name   string
		shapes []models.LayerShape
	}{
		{"resnet50", models.ResNet50Shapes()},
		{"vgg16", models.VGG16Shapes()},
		{"mobilenetv2", models.MobileNetV2Shapes()},
	}
	var rows []NetworkRow
	for _, net := range nets {
		var denseCycles, denseEnergy float64
		totals := map[string]*NetworkRow{}
		for _, a := range archs {
			totals[a.Name()] = &NetworkRow{Network: net.name, Arch: a.Name()}
		}
		for li, l := range net.shapes {
			kept := keptFracForDepth(li, len(net.shapes))
			d := dense.Simulate(l, accel.Dense())
			denseCycles += d.Cycles
			denseEnergy += d.EnergyUJ()
			for _, a := range archs {
				sp := accel.Sparsity{NM: nm, KeptColFrac: kept, BlockSize: 64, ActDensity: 1}
				if l.Kind == models.KindDepthwise {
					sp.KeptColFrac = 1 // block-exempt: N:M only
				}
				if a.Name() == "dstc" {
					sp.ActDensity = dstcActDensity
				}
				p := a.Simulate(l, sp)
				totals[a.Name()].Cycles += p.Cycles
				totals[a.Name()].EnergyUJ += p.EnergyUJ()
			}
		}
		rows = append(rows, NetworkRow{
			Network: net.name, Arch: "dense",
			Cycles: denseCycles, Speedup: 1, EnergyUJ: denseEnergy, EGain: 1,
		})
		for _, a := range archs {
			r := totals[a.Name()]
			r.Speedup = denseCycles / r.Cycles
			r.EGain = denseEnergy / r.EnergyUJ
			rows = append(rows, *r)
		}
	}
	t := &Table{
		Title:   "Extension: end-to-end network latency and energy (2:4 hybrid, B=64)",
		Columns: []string{"network", "arch", "cycles", "speedup", "energy-uJ", "energy-gain"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Network, r.Arch, fmt.Sprintf("%.0f", r.Cycles),
			f1(r.Speedup) + "x", f1(r.EnergyUJ), f1(r.EGain) + "x",
		})
	}
	t.Notes = append(t.Notes, "whole-network sums over every layer of the exact full-size shape tables")
	return rows, t
}

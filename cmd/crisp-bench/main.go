// Command crisp-bench regenerates the CRISP paper's tables and figures as
// text tables on the reproduction substrate (exp.Figures is the experiment
// index; -fig selects from it). The suite fans
// out across a bounded worker pool (the same scheduler cmd/crisp-serve
// uses), so a multi-core machine regenerates all figures concurrently.
//
// Usage:
//
//	crisp-bench                # all figures, quick scale, GOMAXPROCS workers
//	crisp-bench -fig 8         # one figure
//	crisp-bench -fig ablations # the five ablation studies
//	crisp-bench -full          # full scale (slower)
//	crisp-bench -workers 1     # sequential run
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-bench: ")
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,7,8,ablations,ext,mem,validate,all or an exact name like ablation-C")
		full    = flag.Bool("full", false, "run the full-scale configuration")
		seed    = flag.Int64("seed", 1, "random seed")
		format  = flag.String("format", "text", "output format: text, csv, md")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}
	h := exp.NewHarness(exp.Config{Scale: scale, Seed: *seed})

	figs, err := exp.Select(exp.Figures(), *fig)
	if err != nil {
		log.Fatal(err)
	}

	pool := serve.NewPool(*workers)
	defer pool.Close()

	// Wrap every figure with its own timer so the streamed output keeps the
	// per-figure generation time even when figures run concurrently.
	durs := make([]time.Duration, len(figs))
	for i := range figs {
		i, orig := i, figs[i].Run
		figs[i].Run = func(h *exp.Harness) *exp.Table {
			t0 := time.Now()
			t := orig(h)
			durs[i] = time.Since(t0)
			return t
		}
	}

	// Stream tables in input order as they complete: figure i prints as
	// soon as it and everything before it are done, so an interrupted -full
	// run keeps the artifacts already generated.
	var mu sync.Mutex
	next := 0
	ready := make([]*exp.Table, len(figs))
	start := time.Now()
	exp.RunParallel(pool, h, figs, func(i int, t *exp.Table) {
		mu.Lock()
		defer mu.Unlock()
		ready[i] = t
		for next < len(ready) && ready[next] != nil {
			fmt.Println(ready[next].Render(*format))
			if *format == "text" {
				fmt.Printf("(%s generated in %.1fs)\n\n", figs[next].Name, durs[next].Seconds())
			}
			next++
		}
	})
	if *format == "text" {
		fmt.Printf("(%d artifacts in %.1fs on %d workers)\n", len(figs), time.Since(start).Seconds(), pool.Workers())
	}
}

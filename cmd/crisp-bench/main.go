// Command crisp-bench regenerates the CRISP paper's tables and figures as
// text tables on the reproduction substrate (exp.Figures is the experiment
// index; -fig selects from it). At most -workers figures run at once, each
// started in suite order, so a multi-core machine regenerates the suite
// concurrently; a table prints as soon as it and every earlier one are done.
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
	"runtime"
	"time"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-bench: ")
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,7,8,ablations,ext,mem,validate,all or an exact name like ablation-C")
		full    = flag.Bool("full", false, "run the full-scale configuration")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "figures run at once (0 = GOMAXPROCS, 1 = sequential)")
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
}

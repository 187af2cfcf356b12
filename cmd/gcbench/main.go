// Command gcbench regenerates the tables and figures of the GraphCache
// paper's evaluation (§7) at a configurable scale.
//
// Usage:
//
//	gcbench -experiment fig5                # one experiment
//	gcbench -experiment all                 # every experiment
//	gcbench -list                           # enumerate experiments
//	gcbench -experiment fig8 -queries 2000 -count-factor 0.05
//
// Each experiment prints a grid shaped like the paper's figure: one row
// per configuration, one cell per workload category. Absolute numbers
// depend on the machine and the scaled-down synthetic datasets; the shape
// (who wins, by roughly what factor) is the reproduction target. The
// serving stack's own performance is measured by benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"graphcache/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gcbench: ")

	var (
		experiment = flag.String("experiment", "", "experiment id (see -list) or \"all\"")
		list       = flag.Bool("list", false, "list available experiments and exit")
		markdown   = flag.Bool("markdown", false, "emit tables as Markdown")
		out        = flag.String("o", "", "write output to file instead of stdout")
		verbose    = flag.Bool("v", false, "log progress to stderr")

		countFactor  = flag.Float64("count-factor", 0, "scale factor for graphs per dataset (0 = default small scale)")
		sizeFactor   = flag.Float64("size-factor", 0, "scale factor for graph sizes (0 = default)")
		queries      = flag.Int("queries", 0, "workload length for AIDS/PDBS experiments (0 = default)")
		denseQueries = flag.Int("dense-queries", 0, "workload length for PCM/Synthetic experiments (0 = default)")
		answerPool   = flag.Int("answer-pool", 0, "Type B answerable pool size per query size (0 = default)")
		noAnswerPool = flag.Int("noanswer-pool", 0, "Type B no-answer pool size per query size (0 = default)")
		seed         = flag.Int64("seed", 0, "RNG seed deriving every random choice (0 = default)")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment == "" {
		flag.Usage()
		os.Exit(2)
	}

	sc := bench.SmallScale()
	if *countFactor > 0 {
		sc.CountFactor = *countFactor
	}
	if *sizeFactor > 0 {
		sc.SizeFactor = *sizeFactor
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *denseQueries > 0 {
		sc.DenseQueries = *denseQueries
	}
	if *answerPool > 0 {
		sc.AnswerPool = *answerPool
	}
	if *noAnswerPool > 0 {
		sc.NoAnswerPool = *noAnswerPool
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	if *verbose {
		bench.Logf = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	env := bench.NewEnv(sc)

	ids := strings.Split(*experiment, ",")
	start := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		var tables []*bench.Table
		if id == "all" {
			tables = bench.RunAll(env)
		} else {
			e, ok := bench.ExperimentByID(id)
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			tables = e.Run(env)
		}
		for _, t := range tables {
			if *markdown {
				t.FormatMarkdown(w)
			} else {
				t.Format(w)
			}
			fmt.Fprintln(w)
		}
	}
	if *verbose {
		log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
	}
}

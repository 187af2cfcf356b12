// Command benchmark is the fleet benchmark: it drives an in-process
// gcrouter + 2 × gcserved fleet over loopback TCP with one of four
// workloads, checks every answer against bare Method M, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics measured
// from outside the program). BENCHMARK.json at the repository root
// declares the command, workloads and metrics; README.md explains them.
//
//	bash benchmark/run.sh --workload hot_zz --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as --out appends it: the result plus what produced
// it, which is what compare needs to group runs.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"clients"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Result     result `json:"result"`
}

// clients is the generator's concurrency — caller goroutines, each with
// one request in flight and so one connection: sized to this kind of
// small shared box, and recorded with every run.
func clients() int { return min(runtime.NumCPU(), 4) }

// openCallers is how many callers an open loop keeps: enough that one is
// free whenever a request falls due, so the offered rate does not depend
// on how fast replies come back (callers waiting on a reply cost no
// CPU). What lateness remains is reported as client.sched_lag_p99_ms.
func openCallers() int { return 4 * clients() }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run: hot_zz, cold_uu, batch_b20 or mutate_mix (default: all four in turn)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 15, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: run the traced lanes and print the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "append the run as one JSON line to this file (the input of compare)")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the spans as JSON lines to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		todo = []spec{sp}
	}
	ok := true
	for _, sp := range todo {
		fmt.Printf("%s seed=%d seconds=%d trace=%d clients=%d nproc=%d GOMAXPROCS=%d %s\n",
			sp.name, *seed, *seconds, *trace, clients(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(sp, *seed, planFor(sp, *seconds), *traceOut)
		} else {
			res, err = runEndToEnd(sp, *seed, planFor(sp, *seconds))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		printTable(res)
		if *out != "" {
			rec := record{sp.name, *seed, *seconds, *trace == 1, clients(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), res}
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(res)
		if err != nil { // a metric that is not a number
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

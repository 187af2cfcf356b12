package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// declaration is the part of BENCHMARK.json compare and the tests read.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// readRecords loads the runs --out appended to path, as metric values
// grouped by workload and metric name.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges one metric of one workload: "worse" when the second
// median is worse than the first by more than the bound, "unresolved"
// when it is not but either side's own runs spread wider than the bound
// (so the comparison cannot tell), otherwise "ok".
func (d declared) verdict(a, b []float64) (change float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > d.Bound:
		return change, "worse"
	case quartileSpread(a) > d.Bound || quartileSpread(b) > d.Bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// compareMain implements `compare a.jsonl b.jsonl`: per workload and
// metric, both medians, the relative change and the verdict against the
// bound BENCHMARK.json declares. Per-layer metrics have no bound and get
// no verdict. It returns the exit code: 1 if any metric is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "the benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	decl, err := readDeclaration(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	bounded := map[string]declared{}
	for _, d := range decl.EndToEnd {
		bounded[d.Name] = d
	}
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median of n)\tb (median of n)\tchange\tbound\tverdict")
	for _, w := range decl.Workloads {
		var names []string
		for name := range a[w.Name] {
			if len(b[w.Name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Slice(names, func(i, j int) bool { // bounded metrics first
			_, bi := bounded[names[i]]
			_, bj := bounded[names[j]]
			if bi != bj {
				return bi
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			va, vb := a[w.Name][name], b[w.Name][name]
			d, ok := bounded[name]
			change, word := d.verdict(va, vb)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if !ok {
				bound, word = "-", "-"
			}
			if word == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.1f%%\t%s\t%s\n",
				w.Name, name, median(va), len(va), median(vb), len(vb), 100*change, bound, word)
		}
	}
	tw.Flush()
	return code
}

// Package bench is the experiment harness that regenerates every figure
// and table of the paper's evaluation (§7). It provides:
//
//   - Scale: the knobs that shrink the paper's datasets and workloads to
//     laptop scale while preserving their shape (graph-count and graph-size
//     factors, queries per workload, Type B pool sizes);
//   - Env: a memoising environment that builds datasets, Type B query
//     pools, workloads and Method M instances on demand, so experiments
//     sharing a dataset pay its construction cost once;
//   - Run/Compare: the baseline-vs-GraphCache measurement loop; and
//   - the per-experiment drivers (Table1, Fig4 … Fig12, Ablation) in
//     experiments.go, each returning formatted Tables.
//
// Every random choice is derived from Scale.Seed, so a (Scale, experiment)
// pair is fully reproducible.
package bench

import (
	"fmt"
	"sync"

	"graphcache/internal/ctindex"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/grapes"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// Scale shrinks the paper's experimental setup to a size that runs on one
// machine in minutes. The paper's own values are CountFactor = SizeFactor
// = 1, Queries = 10000 (5000 for PCM/Synthetic), AnswerPool = 10000,
// NoAnswerPool = 3000.
type Scale struct {
	// CountFactor scales the number of graphs per dataset.
	CountFactor float64
	// SizeFactor scales the size of each dataset graph.
	SizeFactor float64
	// Queries is the workload length for AIDS/PDBS experiments.
	Queries int
	// DenseQueries is the workload length for the dense PCM/Synthetic
	// datasets (the paper halves it too: 5,000 vs 10,000).
	DenseQueries int
	// AnswerPool and NoAnswerPool are the per-size Type B pool sizes.
	AnswerPool   int
	NoAnswerPool int
	// Seed derives every RNG in the harness.
	Seed int64
}

// SmallScale is the default laptop-scale configuration used by the root
// benchmarks: a few hundred graphs per dataset and workloads of a few
// hundred queries. It keeps every shape result of the paper observable
// while the full suite runs in minutes.
func SmallScale() Scale {
	return Scale{
		CountFactor:  0.02, // AIDS 40000 -> 800; PDBS 600 -> 12 (see note)
		SizeFactor:   1.0,
		Queries:      600,
		DenseQueries: 300,
		AnswerPool:   120,
		NoAnswerPool: 40,
		Seed:         1,
	}
}

// datasetSpec says how one of the four evaluation datasets is derived
// from the Scale. The per-dataset count/size factors compensate for how
// differently the originals are shaped (40,000 small molecules vs 600
// huge backbones): scaling them uniformly would leave PDBS with a handful
// of graphs and PCM graphs too heavy to verify in a test run.
type datasetSpec struct {
	countF, sizeF float64 // multiplied into Scale.CountFactor/SizeFactor
	sizes         []int   // query sizes in edges (§7.2)
	queries       func(Scale) int
}

var datasetSpecs = map[string]datasetSpec{
	// AIDS: many small sparse graphs. Count scales straight down.
	"AIDS": {countF: 1, sizeF: 1, sizes: []int{4, 8, 12, 16, 20},
		queries: func(s Scale) int { return s.Queries }},
	// PDBS: few very large sparse graphs. Shrink each to ~8% size and cut
	// the count so the workload:dataset ratio stays near the paper's 16:1
	// (10,000 queries vs 600 graphs) — repeat and containment hits need
	// queries per graph, not graphs per query.
	"PDBS": {countF: 5, sizeF: 0.08, sizes: []int{4, 8, 12, 16, 20},
		queries: func(s Scale) int { return s.Queries }},
	// PCM: few dense contact maps; shrink sizes, keep density.
	"PCM": {countF: 25, sizeF: 0.2, sizes: []int{20, 25, 30, 35, 40},
		queries: func(s Scale) int { return s.DenseQueries }},
	// Synthetic: GraphGen-style dense graphs, 5x the PCM count.
	"Synthetic": {countF: 5, sizeF: 0.1, sizes: []int{20, 25, 30, 35, 40},
		queries: func(s Scale) int { return s.DenseQueries }},
}

// QuerySizes returns the paper's query sizes (in edges) for the dataset.
func QuerySizes(dsName string) []int { return datasetSpecs[dsName].sizes }

// Env builds and memoises datasets, Type B pools, workloads and methods
// for one Scale. Safe for concurrent use.
type Env struct {
	sc Scale

	mu       sync.Mutex
	datasets map[string]*dataset.Dataset
	pools    map[string]*workload.TypeBPools
	methods  map[string]method.Method
}

// NewEnv returns an empty environment for the given scale.
func NewEnv(sc Scale) *Env {
	return &Env{
		sc:       sc,
		datasets: make(map[string]*dataset.Dataset),
		pools:    make(map[string]*workload.TypeBPools),
		methods:  make(map[string]method.Method),
	}
}

// Scale returns the environment's scale.
func (e *Env) Scale() Scale { return e.sc }

// Dataset returns (building on first use) one of "AIDS", "PDBS", "PCM",
// "Synthetic".
func (e *Env) Dataset(name string) *dataset.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.datasets[name]; ok {
		return ds
	}
	spec, ok := datasetSpecs[name]
	if !ok {
		panic(fmt.Sprintf("bench: unknown dataset %q", name))
	}
	countF := e.sc.CountFactor * spec.countF
	sizeF := e.sc.SizeFactor * spec.sizeF
	seed := e.sc.Seed*1000 + int64(len(name)) // distinct per dataset name length is too weak; mix the name
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	var ds *dataset.Dataset
	switch name {
	case "AIDS":
		ds = gen.DefaultAIDS().Scaled(countF, sizeF).Generate(seed)
	case "PDBS":
		ds = gen.DefaultPDBS().Scaled(countF, sizeF).Generate(seed)
	case "PCM":
		ds = gen.DefaultPCM().Scaled(countF, sizeF).Generate(seed)
	case "Synthetic":
		ds = gen.DefaultSynthetic().Scaled(countF, sizeF).Generate(seed)
	}
	e.datasets[name] = ds
	return ds
}

// Queries returns the workload length for the dataset at this scale.
func (e *Env) Queries(dsName string) int {
	return datasetSpecs[dsName].queries(e.sc)
}

// TypeBPools returns (building on first use) the Type B query pools for
// the dataset.
func (e *Env) TypeBPools(dsName string) *workload.TypeBPools {
	ds := e.Dataset(dsName)
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.pools[dsName]; ok {
		return p
	}
	cfg := workload.TypeBConfig{
		AnswerPoolPerSize:   e.sc.AnswerPool,
		NoAnswerPoolPerSize: e.sc.NoAnswerPool,
		Sizes:               QuerySizes(dsName),
		// Give up on a no-answer slot quickly: for the smallest query
		// sizes, a relabelling with a non-empty candidate set but no
		// answer is rare, and every attempt validates against the whole
		// dataset. Short small-size pools degrade gracefully (the
		// workload draws from the sizes that filled).
		MaxRelabelAttempts: 40,
	}
	logf("building Type B pools for %s", dsName)
	p := workload.BuildTypeBPools(ds, cfg, e.sc.Seed*7919+int64(len(dsName)))
	for _, size := range cfg.Sizes {
		logf("%s pools size %d: %d answerable, %d no-answer",
			dsName, size, len(p.Answer[size]), len(p.NoAnswer[size]))
	}
	e.pools[dsName] = p
	return p
}

// TypeA generates a Type A workload ("UU", "ZU" or "ZZ") over the dataset.
func (e *Env) TypeA(dsName, cat string, alpha float64) []workload.Query {
	ds := e.Dataset(dsName)
	cfg, err := workload.TypeACategory(cat, alpha, QuerySizes(dsName), e.Queries(dsName))
	if err != nil {
		panic(err)
	}
	return workload.TypeA(ds, cfg, e.sc.Seed*104729+int64(len(cat))*17+hashString(dsName+cat))
}

// TypeB draws a Type B workload with the given no-answer probability and
// Zipf alpha over the dataset's pools.
func (e *Env) TypeB(dsName string, noAnswerProb, alpha float64) []workload.Query {
	pools := e.TypeBPools(dsName)
	cfg := workload.TypeBWorkloadConfig{
		NoAnswerProb: noAnswerProb,
		Alpha:        alpha,
		NumQueries:   e.Queries(dsName),
	}
	return pools.Workload(cfg, e.sc.Seed*65537+int64(noAnswerProb*100)+int64(alpha*10)+hashString(dsName))
}

// Workload resolves a paper workload label: "ZZ", "ZU", "UU" (Type A) or
// "0%", "20%", "50%" (Type B, default alpha 1.4).
func (e *Env) Workload(dsName, label string) []workload.Query {
	switch label {
	case "ZZ", "ZU", "UU":
		return e.TypeA(dsName, label, 1.4)
	case "0%":
		return e.TypeB(dsName, 0, 1.4)
	case "20%":
		return e.TypeB(dsName, 0.2, 1.4)
	case "50%":
		return e.TypeB(dsName, 0.5, 1.4)
	}
	panic(fmt.Sprintf("bench: unknown workload label %q", label))
}

// TypeALabels and TypeBLabels are the paper's workload categories.
func TypeALabels() []string { return []string{"ZZ", "ZU", "UU"} }

// TypeBLabels returns the paper's Type B no-answer mix labels.
func TypeBLabels() []string { return []string{"0%", "20%", "50%"} }

// AllWorkloadLabels returns the six workload categories used across §7.
func AllWorkloadLabels() []string {
	return append(TypeALabels(), TypeBLabels()...)
}

// Method returns (building on first use) a Method M instance by its paper
// name: "ctindex", "ggsx", "grapes1", "grapes6", "vf2", "vf2+", "gql".
// The FTV indexes are built once per (method, dataset) pair.
//
// On the dense PCM/Synthetic datasets (average degree ≈ 20) the path
// methods (GGSX, Grapes) index simple paths of ≤ 2 edges instead of the
// paper's 4: length-4 enumeration is combinatorially infeasible there
// (billions of paths), and shorter paths only weaken filtering — exactly
// the regime Figure 9 studies, where verification dominates.
func (e *Env) Method(name, dsName string) method.Method {
	ds := e.Dataset(dsName)
	key := name + "/" + dsName
	pathLen := 4
	if dsName == "PCM" || dsName == "Synthetic" {
		pathLen = 2
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.methods[key]; ok {
		return m
	}
	var m method.Method
	switch name {
	case "ctindex":
		m = ctindex.New(ds, ctindex.Options{})
	case "ggsx":
		m = ggsx.New(ds, ggsx.Options{MaxPathLen: pathLen})
	case "grapes1":
		m = grapes.New(ds, grapes.Options{Threads: 1, MaxPathLen: pathLen})
	case "grapes6":
		m = grapes.New(ds, grapes.Options{Threads: 6, MaxPathLen: pathLen})
	case "vf2":
		m = method.NewVF2(ds)
	case "vf2+":
		m = method.NewVF2Plus(ds)
	case "gql":
		m = method.NewGraphQL(ds)
	default:
		panic(fmt.Sprintf("bench: unknown method %q", name))
	}
	e.methods[key] = m
	return m
}

func hashString(s string) int64 {
	var h int64 = 1469598103
	for _, c := range s {
		h = h*1099511 + int64(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 1000003
}

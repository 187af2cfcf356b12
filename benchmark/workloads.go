package main

import (
	"fmt"
	"math/rand"
	"time"

	"graphcache"
	"graphcache/internal/graph"
)

// A spec is one workload: which dataset, Method M and query stream the
// fleet sees, how the generator offers it, and the constants that size
// the run. Rates are per measured second, so --seconds scales the
// operation counts and nothing else. The constants are frozen: the
// traced split each workload exists for (README, "Why each workload
// exists") was checked with exactly these.
type spec struct {
	name string
	why  string // the one line BENCHMARK.json carries

	method string  // Method M behind every backend
	scale  float64 // AIDS-like count factor (1 = 40,000 graphs)
	stream string  // "ZZ", "UU" (Type A) or "B20" (Type B pools, 20% no-answer)
	batch  int     // queries per request; 1 = POST /query
	binary bool    // binary request codec instead of JSON/text

	openRate    float64 // >0: open loop, Poisson arrivals at this many requests/s
	settleOps   int     // operations run on the measured fleet after warm-up, before timing starts
	mutateEvery int     // >0: every n-th operation is a POST /mutate

	opsPerSec   int // closed loop: operations generated per measured second (an upper bound on what runs)
	countPerSec int // closed loop: measured operations per second that count towards subiso_saved_share
	traceOps    int // traced run: operations per lane per --seconds
	traceLoadOp int // traced run: operations of the concurrent load phase per --seconds
}

const (
	// worldSeed generates what the fleet serves — the dataset, and the
	// Type B pools built from it. It is a constant, like the tables of a
	// database benchmark: --seed draws the operation sequence, arrival
	// times and mutations over that fixed world, so runs with different
	// seeds are different samples of one workload and their metrics agree
	// to within sampling and timing noise.
	worldSeed  = 20170321
	backends   = 2 // gcserved instances behind the router
	batchSize  = 32
	zipfAlpha  = 1.4
	poolAnswer = 120 // Type B answerable queries per size
	poolNoAns  = 40  // Type B no-answer queries per size
)

// querySizes are the paper's AIDS query sizes in edges (§7.2).
var querySizes = []int{4, 8, 12, 16, 20}

var specs = []spec{
	{
		name:   "hot_zz",
		why:    "skewed repeats that fit the cache, open loop at a fixed rate: the HTTP, coalescer, router and codec hops are the latency, Method M almost none",
		method: "ggsx", scale: 0.02, stream: "ZZ", batch: 1,
		openRate: 250, traceOps: 90, traceLoadOp: 60,
	},
	{
		name:   "cold_uu",
		why:    "uniform queries far beyond cache capacity over index-free VF2+: verification, sub/super-hit pruning and replacement churn are the latency, the hops are small",
		method: "vf2plus", scale: 0.06, stream: "UU", batch: 1,
		opsPerSec: 350, countPerSec: 120, traceOps: 22, traceLoadOp: 40,
	},
	{
		name:   "batch_b20",
		why:    "batches of 32 from Type B pools (20% no-answer) over the binary codec: one hop per 32 queries, so the engine's batch path is the bulk of the time",
		method: "ggsx", scale: 0.02, stream: "B20", batch: batchSize, binary: true,
		// The replacement policy needs ~25,000 queries to settle on the
		// pools' hot entries; until then throughput climbs by a fifth, at
		// a pace that differs from run to run.
		settleOps: 800,
		opsPerSec: 400, countPerSec: 150, traceOps: 18, traceLoadOp: 40,
	},
	{
		name:   "mutate_mix",
		why:    "the hot_zz stream with every 100th operation a journaled fleet-wide mutation: answer repair, WAL fsync and fan-out compete with the read path",
		method: "ggsx", scale: 0.02, stream: "ZZ", batch: 1,
		mutateEvery: 100, opsPerSec: 900, countPerSec: 300, traceOps: 90, traceLoadOp: 150,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// An op is one operation of a workload's fixed sequence: a query
// request (one graph, or a batch) or a mutation.
type op struct {
	queries []*graphcache.Graph
	mutate  *graphcache.ServerMutateRequest
}

// inputs is everything a run is made from: the fixed world and the
// operation sequence --seed draws over it.
type inputs struct {
	spec spec
	seed int64

	// ds and m are the dataset and Method M the backends share. On a
	// mutating workload they stay pristine (epoch 0): every backend,
	// lane and oracle takes its own copy from newMethod instead.
	ds *graphcache.Dataset
	m  graphcache.Method

	ops  []op // warm-up operations first, then the measured sequence
	warm int  // how many leading ops are warm-up

	// gaps[i] is the inter-arrival time before op i (open loop only).
	gaps []time.Duration

	genDatasetS, genIndexS, genWorkloadS float64
}

func (in *inputs) dataset() *graphcache.Dataset {
	return graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(in.spec.scale, 1), worldSeed)
}

// newMethod returns a Method M for one consumer: the shared read-only
// one, or on a mutating workload a private dataset and index.
func (in *inputs) newMethod() (graphcache.Method, error) {
	if in.spec.mutateEvery == 0 {
		return in.m, nil
	}
	return graphcache.NewMethodByName(in.spec.method, in.dataset())
}

// plan sizes one run. planFor derives it from --seconds; tests write
// small ones by hand.
type plan struct {
	setupReps int           // set-ups per end-to-end run; setup_s is their median
	warm      int           // operations sent through the router in every set-up
	settle    int           // further operations the measured fleet serves before timing starts
	length    time.Duration // the measured phase
	measured  int           // operations laid out for it: what an open loop offers, the most a closed loop gets through
	counted   int           // the leading measured operations subiso_saved_share is taken over
	laneOps   int           // traced run: operations per lane
	loadOps   int           // traced run: operations of the concurrent load phase
}

func planFor(sp spec, seconds int) plan {
	pl := plan{
		setupReps: 3,
		warm:      400,
		settle:    sp.settleOps,
		length:    time.Duration(seconds) * time.Second,
		measured:  sp.opsPerSec * seconds,
		counted:   sp.countPerSec * seconds,
		laneOps:   sp.traceOps * seconds,
		loadOps:   sp.traceLoadOp * seconds,
	}
	if sp.batch > 1 {
		// A batch is ~16 single queries' worth of work: warm up with
		// fewer requests (but still twice the queries).
		pl.warm = pl.warm / sp.batch * 2
	}
	if sp.openRate > 0 {
		pl.measured = int(sp.openRate * float64(seconds))
		pl.counted = pl.measured
	}
	return pl
}

// buildInputs generates the dataset, builds Method M over it and lays
// out a sequence of total operations, the first warm of them warm-up.
func buildInputs(sp spec, seed int64, warm, total int) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed, warm: warm}
	t := time.Now()
	in.ds = in.dataset()
	in.genDatasetS = time.Since(t).Seconds()

	t = time.Now()
	m, err := graphcache.NewMethodByName(sp.method, in.ds)
	if err != nil {
		return nil, err
	}
	in.m = m
	in.genIndexS = time.Since(t).Seconds()

	t = time.Now()
	nq := total * sp.batch
	var qs []graphcache.Query
	switch sp.stream {
	case "ZZ", "UU":
		cfg, err := graphcache.TypeACategory(sp.stream, zipfAlpha, querySizes, nq)
		if err != nil {
			return nil, err
		}
		qs = graphcache.TypeA(in.ds, cfg, seed*7919+1)
	case "B20":
		pools := buildPools(in.ds, in.m, worldSeed+2)
		qs = pools.Workload(graphcache.TypeBWorkloadConfig{NoAnswerProb: 0.2, Alpha: zipfAlpha, NumQueries: nq}, seed*65537+3)
	default:
		return nil, fmt.Errorf("unknown stream %q", sp.stream)
	}
	if len(qs) != nq {
		return nil, fmt.Errorf("workload generator returned %d of %d queries", len(qs), nq)
	}
	var muts *mutator
	if sp.mutateEvery > 0 {
		muts = newMutator(in.ds, seed*31337+4, total/sp.mutateEvery)
	}
	in.ops = make([]op, total)
	for i := range in.ops {
		if muts != nil && i%sp.mutateEvery == sp.mutateEvery-1 {
			req, err := muts.next()
			if err != nil {
				return nil, err
			}
			in.ops[i].mutate = req
			continue
		}
		gs := make([]*graphcache.Graph, sp.batch)
		for j := range gs {
			gs[j] = qs[i*sp.batch+j].Graph
		}
		in.ops[i].queries = gs
	}
	if sp.openRate > 0 {
		r := rand.New(rand.NewSource(seed*2654435761 + 5))
		in.gaps = make([]time.Duration, total)
		for i := range in.gaps {
			in.gaps[i] = time.Duration(r.ExpFloat64() / sp.openRate * float64(time.Second))
		}
	}
	in.genWorkloadS = time.Since(t).Seconds()
	return in, nil
}

// buildPools makes Type B pools per query size: answerable queries are
// uniform BFS extracts; no-answer queries are answerable ones with a
// leaf relabelled (labels drawn as the dataset's vertices carry them)
// until Method M's filter still returns candidates but none verifies —
// the paper's definition. A relabelled leaf keeps most path features, so
// a few percent of the tries pass; most of the rest fail the filter,
// which is cheap. graphcache.BuildTypeBPools fills
// its no-answer pools by validating random relabellings against every
// dataset graph, which takes over 40 s at this scale; checking against
// the index takes well under a second.
func buildPools(ds *graphcache.Dataset, m graphcache.Method, seed int64) *graphcache.TypeBPools {
	pools := &graphcache.TypeBPools{
		Sizes:    querySizes,
		Answer:   make(map[int][]*graphcache.Graph),
		NoAnswer: make(map[int][]*graphcache.Graph),
	}
	r := rand.New(rand.NewSource(seed))
	for _, size := range querySizes {
		cfg := graphcache.TypeAConfig{GraphDist: graphcache.Uniform, NodeDist: graphcache.Uniform, Sizes: []int{size}, NumQueries: poolAnswer}
		for _, q := range graphcache.TypeA(ds, cfg, seed+int64(size)) {
			pools.Answer[size] = append(pools.Answer[size], q.Graph)
		}
		for tries := 0; len(pools.NoAnswer[size]) < poolNoAns && tries < 100*poolNoAns; tries++ {
			q := relabelLeaf(r, ds, pools.Answer[size][r.Intn(poolAnswer)])
			if cs := m.Filter(q); len(cs) > 0 && !anyVerifies(m, q, cs) {
				pools.NoAnswer[size] = append(pools.NoAnswer[size], q)
			}
		}
	}
	return pools
}

func anyVerifies(m graphcache.Method, q *graphcache.Graph, candidates []int32) bool {
	for _, id := range candidates {
		if m.Verify(q, id) {
			return true
		}
	}
	return false
}

// relabelLeaf copies g with one vertex — a leaf, when g has one — given
// the label of a random vertex of a random dataset graph.
func relabelLeaf(r *rand.Rand, ds *graphcache.Dataset, g *graphcache.Graph) *graphcache.Graph {
	labels := append([]graphcache.Label(nil), g.Labels()...)
	v := r.Intn(len(labels))
	for tries := 0; tries < 32 && g.Degree(int32(v)) != 1; tries++ {
		v = r.Intn(len(labels))
	}
	src := ds.Graph(int32(r.Intn(ds.Len())))
	labels[v] = src.Label(int32(r.Intn(src.NumVertices())))
	b := graphcache.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	g.Edges(func(u, v int32) { b.AddEdge(u, v) })
	return b.MustBuild()
}

// mutator produces the seeded mutation cycle — add 4 graphs, remove 4
// ids, edit one graph's edges — as wire requests that are valid when
// applied in order: removals and edits draw from disjoint halves of a
// seeded permutation of the base ids (removals then go on to the added
// graphs, so the dataset keeps its size), and the current version of
// every edited graph is tracked.
type mutator struct {
	r      *rand.Rand
	ds     *graphcache.Dataset
	fresh  []*graphcache.Graph // graphs to add, consumed 4 at a time
	remove []int32             // ids to remove, consumed 4 at a time; every add appends its ids, so it never runs dry
	nextID int32               // the id the next added graph will get
	edit   []int32             // base ids to edit, cycled
	edited map[int32]*graphcache.Graph
	n      int
}

// newMutator prepares a cycle of up to count mutations over ds.
func newMutator(ds *graphcache.Dataset, seed int64, count int) *mutator {
	r := rand.New(rand.NewSource(seed))
	ids := make([]int32, ds.Len())
	for i, p := range r.Perm(ds.Len()) {
		ids[i] = int32(p)
	}
	cfg := graphcache.DefaultAIDS()
	cfg.NumGraphs = 4 * (count/3 + 1)
	return &mutator{
		r:      r,
		ds:     ds,
		nextID: int32(ds.Len()),
		fresh:  graphcache.AIDSLike(cfg, seed+1).Graphs(),
		remove: append([]int32(nil), ids[:len(ids)/2]...),
		edit:   ids[len(ids)/2:],
		edited: make(map[int32]*graphcache.Graph),
	}
}

func (mu *mutator) next() (*graphcache.ServerMutateRequest, error) {
	defer func() { mu.n++ }()
	switch mu.n % 3 {
	case 0:
		if len(mu.fresh) < 4 {
			return nil, fmt.Errorf("mutation cycle ran out of graphs to add")
		}
		text, err := graph.EncodeText(mu.fresh[:4])
		if err != nil {
			return nil, err
		}
		mu.fresh = mu.fresh[4:]
		for k := 0; k < 4; k++ {
			mu.remove = append(mu.remove, mu.nextID)
			mu.nextID++
		}
		return &graphcache.ServerMutateRequest{Op: "add", Graphs: string(text)}, nil
	case 1:
		ids := mu.remove[:4]
		mu.remove = mu.remove[4:]
		return &graphcache.ServerMutateRequest{Op: "remove", IDs: ids}, nil
	default:
		// Drop one edge and join two vertices that were not adjacent.
		id := mu.edit[(mu.n/3)%len(mu.edit)]
		g := mu.edited[id]
		if g == nil {
			g = mu.ds.Graph(id)
		}
		var edits []graphcache.EdgeEdit
		drop, i := mu.r.Intn(g.NumEdges()), 0
		g.Edges(func(u, v int32) {
			if i == drop {
				edits = append(edits, graphcache.EdgeEdit{U: u, V: v, Del: true})
			}
			i++
		})
		n := int32(g.NumVertices())
		for tries := 0; tries < 64; tries++ {
			u, v := mu.r.Int31n(n), mu.r.Int31n(n)
			if u != v && !g.HasEdge(u, v) {
				edits = append(edits, graphcache.EdgeEdit{U: u, V: v})
				break
			}
		}
		ng, err := graphcache.ApplyEdgeEdits(g, edits)
		if err != nil {
			return nil, fmt.Errorf("building edit of graph %d: %w", id, err)
		}
		mu.edited[id] = ng
		text, err := graph.EncodeText([]*graphcache.Graph{ng})
		if err != nil {
			return nil, err
		}
		return &graphcache.ServerMutateRequest{Op: "edit", Graphs: string(text), IDs: []int32{id}}, nil
	}
}

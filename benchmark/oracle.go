package main

import (
	"fmt"
	"sort"

	"graphcache"
	"graphcache/internal/graph"
)

// bare is a cold Method M with no cache in front, over its own copy of
// the dataset.
type bare struct{ m graphcache.Method }

func newBare(in *inputs, method string) (bare, error) {
	m, err := graphcache.NewMethodByName(method, in.dataset())
	return bare{m}, err
}

// answer is graphcache.Answer — filter, then verify every live
// candidate — that also reports how many sub-iso tests that took.
func (b bare) answer(q *graphcache.Graph) (answer []int32, tests int) {
	cs := b.candidates(q)
	for _, id := range cs {
		if b.m.Verify(q, id) {
			answer = append(answer, id)
		}
	}
	return answer, len(cs)
}

func (b bare) candidates(q *graphcache.Graph) []int32 {
	return b.m.Dataset().FilterLive(b.m.Filter(q))
}

// apply advances the dataset and the method's index by one mutation, as
// Cache.ApplyMutation advances a backend's.
func (b bare) apply(req *graphcache.ServerMutateRequest) error {
	mut, err := decodeMutation(req)
	if err != nil {
		return err
	}
	ds := b.m.Dataset()
	var added, edited []*graphcache.Graph
	var removed []int32
	switch mut.Op {
	case graphcache.OpAdd:
		for _, id := range ds.AddGraphs(mut.Graphs) {
			added = append(added, ds.Graph(id))
		}
	case graphcache.OpRemove:
		removed = ds.RemoveGraphs(mut.IDs)
	case graphcache.OpEdit:
		ng, err := ds.Replace(mut.IDs[0], mut.Graphs[0])
		if err != nil {
			return err
		}
		edited = []*graphcache.Graph{ng}
	}
	b.m.(graphcache.DynamicMethod).ApplyDatasetMutation(added, edited, removed)
	return nil
}

// oracle says what the right answer to a query is, at the epoch its
// mutation history has reached.
//
// Answers come from a bare GGSX whatever the fleet runs: the answer set
// of a sub-iso query does not depend on the method, GGSX is the cheapest
// exact one here (0.2 ms a query where bare VF2+ takes 6 ms), and on
// cold_uu it is also an implementation independent of the one under
// test. The bare sub-iso count behind subiso_saved_share is the size of
// the candidate set the fleet's own method produces with no cache in
// front — for VF2+ every live graph.
type oracle struct {
	answers bare
	counts  bare               // the fleet's method; the same value as answers when that is GGSX
	memo    map[string]verdict // by the query's text encoding; reset by every mutation
}

// verdict is the oracle's word on one query at the current epoch.
type verdict struct {
	digest uint64
	bare   int // sub-iso tests bare Method M spends
}

func newOracle(in *inputs) (*oracle, error) {
	answers, err := newBare(in, "ggsx")
	if err != nil {
		return nil, err
	}
	o := &oracle{answers: answers, counts: answers, memo: make(map[string]verdict)}
	if in.spec.method != "ggsx" {
		if o.counts, err = newBare(in, in.spec.method); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *oracle) ask(q *graphcache.Graph) (verdict, error) {
	key, err := graph.EncodeText([]*graphcache.Graph{q})
	if err != nil {
		return verdict{}, err
	}
	if v, ok := o.memo[string(key)]; ok {
		return v, nil
	}
	answer, tests := o.answers.answer(q)
	if o.counts != o.answers {
		tests = len(o.counts.candidates(q))
	}
	v := verdict{digest(answer), tests}
	o.memo[string(key)] = v
	return v, nil
}

func (o *oracle) apply(req *graphcache.ServerMutateRequest) error {
	if err := o.answers.apply(req); err != nil {
		return err
	}
	if o.counts != o.answers {
		if err := o.counts.apply(req); err != nil {
			return err
		}
	}
	o.memo = make(map[string]verdict)
	return nil
}

// decodeMutation turns a wire mutation into the library's form, with
// freshly decoded graphs the receiver may renumber.
func decodeMutation(req *graphcache.ServerMutateRequest) (graphcache.Mutation, error) {
	op, ok := graphcache.ParseMutationOp(req.Op)
	if !ok {
		return graphcache.Mutation{}, fmt.Errorf("unknown mutation op %q", req.Op)
	}
	mut := graphcache.Mutation{Op: op, IDs: req.IDs}
	if req.Graphs != "" {
		gs, err := graph.DecodeText([]byte(req.Graphs))
		if err != nil {
			return graphcache.Mutation{}, err
		}
		mut.Graphs = gs
	}
	return mut, nil
}

// judged is the oracle pass's verdict on a run.
type judged struct {
	queries   int64 // queries answered correctly
	wrong     int   // requests with at least one wrong answer
	fleetTest int64 // Σ sub-iso tests the fleet reported, over correct requests
	bareTest  int64 // Σ bare Method M sub-iso tests for the same queries

	// savedShare is Σ 1 − fleet tests ÷ bare tests over the correct
	// requests among the first few (judge's count) where bare Method M
	// has any test to save, counted how many those were.
	savedShare float64
	counted    int
}

// judge checks the query requests among outs[from:] against the oracle.
// outs[k] is the outcome of ops[k], warm-up included: the mutation
// history is replayed from the start in the order the mutations were
// issued, and a request is correct if all its answers match the oracle
// at one epoch between the last mutation acknowledged before it was
// sent and the last one issued before it returned. Wrong requests are
// marked failed. The saved share is taken over outs[from:from+count]: a
// closed loop gets further in a run the faster the machine is, and what
// the cache saves changes as it learns, so a share over everything that
// ran would carry the machine's speed.
func (o *oracle) judge(ops []op, outs []outcome, from, count int) (judged, error) {
	var j judged
	var history []int // indices of executed mutations, in issue order
	for k := range outs {
		if ops[k].mutate != nil && outs[k].done {
			history = append(history, k)
		}
	}
	sort.Slice(history, func(a, b int) bool { return outs[history[a]].epochHi < outs[history[b]].epochHi })

	matched := make([]bool, len(outs))
	bare := make([]int64, len(outs))
	isQuery := func(k int) bool { return outs[k].done && !outs[k].failed && ops[k].mutate == nil }
	for epoch := int32(0); ; epoch++ {
		for k := from; k < len(outs); k++ {
			out := &outs[k]
			if !isQuery(k) || matched[k] || epoch < out.epochLo || epoch > out.epochHi {
				continue
			}
			ok, sum := true, int64(0)
			for n, q := range ops[k].queries {
				v, err := o.ask(q)
				if err != nil {
					return j, err
				}
				ok = ok && v.digest == out.digests[n]
				sum += int64(v.bare)
			}
			matched[k], bare[k] = ok, sum
		}
		if int(epoch) == len(history) {
			break
		}
		if err := o.apply(ops[history[epoch]].mutate); err != nil {
			return j, err
		}
	}
	for k := from; k < len(outs); k++ {
		out := &outs[k]
		if !isQuery(k) {
			continue
		}
		if !matched[k] {
			out.failed = true
			j.wrong++
			continue
		}
		j.queries += int64(len(out.digests))
		j.fleetTest += out.subiso
		j.bareTest += bare[k]
		if bare[k] > 0 && k < from+count {
			j.savedShare += 1 - float64(out.subiso)/float64(bare[k])
			j.counted++
		}
	}
	return j, nil
}

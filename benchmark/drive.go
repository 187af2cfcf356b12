package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"graphcache"
)

// target is what a driver sends operations to. fleetTarget speaks the
// wire protocol through graphcache.ServerClient; the traced run's lib
// lane calls a Cache directly.
type target interface {
	query(ctx context.Context, qs []*graphcache.Graph) ([]reply, error)
	mutate(ctx context.Context, req *graphcache.ServerMutateRequest) error
}

// reply is what the benchmark keeps of one query's response.
type reply struct {
	answer []int32
	stats  graphcache.QueryStats
}

type fleetTarget struct{ cl *graphcache.ServerClient }

// newFleetTarget returns a client for addr that retries refusals
// (429/503) a few times before the operation counts as failed.
func newFleetTarget(addr string, binary bool) fleetTarget {
	return fleetTarget{graphcache.NewServerClientWith(addr, graphcache.ServerClientOptions{
		RequestTimeout: 30 * time.Second,
		MaxRetries:     3,
		RetryBaseDelay: 10 * time.Millisecond,
		WireBinary:     binary,
	})}
}

func (t fleetTarget) query(ctx context.Context, qs []*graphcache.Graph) ([]reply, error) {
	if len(qs) == 1 {
		r, err := t.cl.Query(ctx, qs[0])
		return []reply{{r.Answer, r.Stats}}, err
	}
	rs, err := t.cl.QueryBatch(ctx, qs)
	out := make([]reply, len(rs))
	for i, r := range rs {
		out[i] = reply{r.Answer, r.Stats}
	}
	return out, err
}

func (t fleetTarget) mutate(ctx context.Context, req *graphcache.ServerMutateRequest) error {
	_, err := t.cl.Mutate(ctx, *req)
	return err
}

// outcome is the record of one executed operation.
type outcome struct {
	done    bool
	failed  bool          // transport error, or refused after the client's retries
	start   time.Time     // when the request was actually sent
	latency time.Duration // completion − due time (open loop) or − send time (closed loop)
	lag     time.Duration // send time − due time (open loop)

	// Per query of the request: a digest of the answer and the sub-iso
	// tests the fleet reported spending on it.
	digests []uint64
	subiso  int64

	// The mutation epochs a query's answers may legitimately reflect:
	// mutations acknowledged before the request was sent … mutations
	// issued before it returned. A mutation records in epochHi the epoch
	// it produces.
	epochLo, epochHi int32
}

// digest condenses an answer to 64 bits (FNV-1a over length and ids), so
// a run keeps 8 bytes per query instead of every answer until the oracle
// pass; live_heap_mb then measures the fleet, not the benchmark's notes.
func digest(answer []int32) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 1099511628211
		}
	}
	mix(uint32(len(answer)))
	for _, id := range answer {
		mix(uint32(id))
	}
	return h
}

// driver runs a contiguous range of a workload's operations against a
// target with a fixed number of caller goroutines, each holding one
// connection's worth of concurrency.
type driver struct {
	ops     []op
	tgt     target
	callers int

	// Mutations go out one at a time, so the i-th mutation issued is the
	// i-th applied and the oracle can replay the history in issue order.
	mutMu         sync.Mutex
	issued, acked atomic.Int32
}

// closed runs ops[from:to) in a closed loop — each caller sends its next
// operation when the previous one completed — until the range is
// exhausted or the deadline passes (zero: no deadline).
func (d *driver) closed(ctx context.Context, from, to int, deadline time.Time) []outcome {
	out := make([]outcome, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	d.spawn(func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= to || (!deadline.IsZero() && !time.Now().Before(deadline)) {
				return
			}
			d.exec(ctx, i, time.Time{}, &out[i-from])
		}
	})
	return out
}

// open runs ops[from:to) in an open loop: operation i is due gaps[i]
// after operation i-1 was due, whatever happened to the ones before it;
// the first free caller sends it then (or at once, when every caller
// was still busy at that instant), and its latency counts from the due
// time. Past giveUp after the start nothing more is sent; what was not
// sent has failed.
func (d *driver) open(ctx context.Context, from, to int, gaps []time.Duration, giveUp time.Duration) []outcome {
	out := make([]outcome, to-from)
	due := make([]time.Duration, to-from)
	at := time.Duration(0)
	for k := range due {
		at += gaps[from+k]
		due[k] = at
	}
	var next atomic.Int64
	start := time.Now()
	d.spawn(func() {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(due) {
				return
			}
			at := start.Add(due[k])
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
			}
			if time.Since(start) > giveUp {
				out[k] = outcome{done: true, failed: true}
				continue
			}
			d.exec(ctx, from+k, at, &out[k])
		}
	})
	return out
}

// offer runs ops[from:to) the way the workload offers its load: at its
// fixed arrival rate, or in a closed loop until the deadline (zero: until
// the range is exhausted).
func (d *driver) offer(ctx context.Context, in *inputs, from, to int, length time.Duration, deadline time.Time) []outcome {
	if in.spec.openRate > 0 {
		d.callers = openCallers()
		return d.open(ctx, from, to, in.gaps, 2*length)
	}
	return d.closed(ctx, from, to, deadline)
}

func (d *driver) spawn(loop func()) {
	var wg sync.WaitGroup
	for c := 0; c < d.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
}

// exec performs operation i and fills in its outcome. due is the
// operation's scheduled send time in an open loop, zero in a closed one.
func (d *driver) exec(ctx context.Context, i int, due time.Time, o *outcome) {
	o.done = true
	if req := d.ops[i].mutate; req != nil {
		d.mutMu.Lock()
		defer d.mutMu.Unlock()
		o.start = time.Now()
		o.epochHi = d.issued.Add(1) // this mutation's place in the history
		err := d.tgt.mutate(ctx, req)
		o.latency = time.Since(o.start)
		d.acked.Add(1)
		o.failed = err != nil
		return
	}
	o.epochLo = d.acked.Load()
	o.start = time.Now()
	rs, err := d.tgt.query(ctx, d.ops[i].queries)
	end := time.Now()
	o.epochHi = d.issued.Load()
	if due.IsZero() {
		due = o.start
	}
	o.latency, o.lag = end.Sub(due), o.start.Sub(due)
	if err != nil {
		o.failed = true
		return
	}
	o.digests = make([]uint64, len(rs))
	for j, r := range rs {
		o.digests[j] = digest(r.answer)
		o.subiso += int64(r.stats.SubIsoTests)
	}
}

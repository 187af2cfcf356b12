package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// stand is one set-up: inputs, a fleet that has served the warm-up, and
// the driver (whose mutation counters carry on into the measured phase).
type stand struct {
	in     *inputs
	fl     *fleet
	drv    *driver
	warm   []outcome
	tmpDir string
	took   time.Duration
}

// setUp goes from nothing to a warmed fleet. This whole path is setup_s.
func setUp(ctx context.Context, sp spec, seed int64, pl plan) (*stand, error) {
	t0 := time.Now()
	in, err := buildInputs(sp, seed, pl.warm, pl.warm+pl.settle+pl.measured)
	if err != nil {
		return nil, err
	}
	st := &stand{in: in}
	if sp.mutateEvery > 0 {
		// The journals live next to the run, inside the checkout.
		if st.tmpDir, err = os.MkdirTemp(".", ".fleetbench-tmp-"); err != nil {
			return nil, err
		}
	}
	if st.fl, err = startFleet(in.newMethod, backends, true, st.tmpDir); err != nil {
		st.tearDown()
		return nil, err
	}
	st.drv = &driver{ops: in.ops, tgt: newFleetTarget(st.fl.addr(), sp.binary), callers: clients()}
	st.warm = st.drv.closed(ctx, 0, in.warm, time.Time{})
	for i, o := range st.warm {
		if o.failed {
			st.tearDown()
			return nil, fmt.Errorf("warm-up operation %d failed", i)
		}
	}
	st.took = time.Since(t0)
	return st, nil
}

func (st *stand) tearDown() error {
	var err error
	if st.fl != nil {
		err = st.fl.stop()
		st.fl = nil
	}
	if st.tmpDir != "" {
		os.RemoveAll(st.tmpDir)
	}
	return err
}

// runEndToEnd is a --trace 0 run: set up (several times, keeping the
// last), measure for the planned time with tracing off, read the heap,
// then check every answer.
func runEndToEnd(sp spec, seed int64, pl plan) (result, error) {
	ctx := context.Background()
	var st *stand
	var setups []float64
	for rep := 0; rep < pl.setupReps; rep++ {
		if st != nil {
			if err := st.tearDown(); err != nil {
				return result{}, err
			}
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = setUp(ctx, sp, seed, pl); err != nil {
			return result{}, err
		}
		setups = append(setups, st.took.Seconds())
	}
	defer st.tearDown()
	in := st.in
	first := in.warm + pl.settle // the first measured operation
	settled := st.drv.closed(ctx, in.warm, first, time.Time{})

	start := time.Now()
	outs := st.drv.offer(ctx, in, first, len(in.ops), pl.length, start.Add(pl.length))
	wall := time.Since(start)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := st.tearDown(); err != nil {
		return result{}, err
	}

	t := time.Now()
	or, err := newOracle(in)
	if err != nil {
		return result{}, err
	}
	all := append(append(st.warm, settled...), outs...)
	jd, err := or.judge(in.ops, all, first, pl.counted)
	if err != nil {
		return result{}, err
	}
	oracleS := time.Since(t).Seconds()

	sum := summarise(in.ops[first:], all[first:])
	if len(sum.latMS) == 0 || jd.counted == 0 {
		return result{}, fmt.Errorf("no query completed correctly (%d attempted, %d failed)", sum.attempted, sum.failed)
	}
	// The tail is printed, not reported: on this kind of box it is the
	// collector's mark phases, and no statistic of it repeats to within a
	// quarter from run to run (README, "What is not an end-to-end metric").
	p99 := tailPercentile(sum.latMS, 0.99)
	fmt.Printf("  %d requests in %.2fs, p99 %.3f ms (median of %d segment(s), %d samples beyond it in each); %d wrong; oracle %.2fs; set-ups %.2fs\n",
		len(sum.latMS), wall.Seconds(), p99.value, p99.segments, p99.beyond, jd.wrong, oracleS, setups)
	fmt.Printf("  sub-iso tests: fleet %d, bare Method M %d for the same queries (%.2f× fewer)\n",
		jd.fleetTest, jd.bareTest, ratio(float64(jd.bareTest), float64(jd.fleetTest)))
	if len(sum.mutMS) > 0 {
		fmt.Printf("  %d mutations, ack p50 %.3f ms\n", len(sum.mutMS), median(sum.mutMS))
	}
	return result{
		Correct:   jd.wrong == 0,
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"query_p50_ms":       {median(sum.latMS), "ms"},
			"throughput_qps":     {float64(jd.queries) / wall.Seconds(), "queries/s"},
			"subiso_saved_share": {jd.savedShare / float64(jd.counted), "ratio"},
			"live_heap_mb":       {float64(mem.HeapInuse) / (1 << 20), "MB"},
		},
	}, nil
}

// summary is the client's view of a stretch of operations.
type summary struct {
	attempted, failed int
	latMS             []float64 // successful query requests, in issue order
	lagMS             []float64 // how late each of them was sent (open loop)
	mutMS             []float64 // successful mutations' ack latency
}

func summarise(ops []op, outs []outcome) summary {
	var s summary
	for k, o := range outs {
		if !o.done {
			continue
		}
		s.attempted++
		switch {
		case o.failed:
			s.failed++
		case ops[k].mutate != nil:
			s.mutMS = append(s.mutMS, ms(o.latency))
		default:
			s.latMS = append(s.latMS, ms(o.latency))
			s.lagMS = append(s.lagMS, ms(o.lag))
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

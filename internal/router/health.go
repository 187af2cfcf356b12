package router

import (
	"context"
	"sync"
	"time"
)

// noteEpoch folds one observed dataset epoch into the backend's view,
// keeping the maximum (observations race each other; the epoch itself
// is monotone).
func (b *backend) noteEpoch(e int64) {
	for {
		cur := b.epoch.Load()
		if e <= cur || b.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// current reports whether the backend has applied every mutation the
// fleet has (its observed epoch matches the fleet maximum).
func (b *backend) current(fleetEpoch int64) bool { return b.epoch.Load() >= fleetEpoch }

// fleetEpoch is the fleet's dataset epoch: the maximum epoch any
// backend has reached. Backends below it are lagging and diverted.
func (tp *topology) fleetEpoch() int64 {
	var fe int64
	for _, b := range tp.bs {
		if e := b.epoch.Load(); e > fe {
			fe = e
		}
	}
	return fe
}

// probeLoop re-probes every backend each probeInterval until Shutdown.
// Probes and dispatches feed the same breakers; the prober's job is to
// open the breaker of a backend that dies while idle and to speed up
// half-open probing without spending client requests.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.tun.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll health-checks every backend concurrently, feeding outcomes to
// the breakers. Backends whose breaker is open and still cooling down
// are skipped; in half-open the probe competes with real dispatches for
// the bounded probe slots.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends() {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if !b.br.Allow() {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), rt.tun.probeTimeout)
			defer cancel()
			epoch, err := b.cl.HealthzEpoch(ctx)
			b.br.Record(err == nil)
			if err == nil {
				b.noteEpoch(epoch)
			}
		}(b)
	}
	wg.Wait()
}

func (rt *Router) availableCount() int {
	n := 0
	for _, b := range rt.backends() {
		if b.available() {
			n++
		}
	}
	return n
}

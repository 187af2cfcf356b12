package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"time"

	"graphcache"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// fleet is gcserved backends, optionally behind one gcrouter, running
// in this process and listening on real loopback TCP ports.
type fleet struct {
	servers []*graphcache.Server
	router  *graphcache.Router
	served  chan error // one Serve result per listener
}

// cacheOptions is what cmd/gcserved builds its cache with by default.
func cacheOptions() graphcache.Options {
	return graphcache.Options{CacheSize: 100, WindowSize: 20, Policy: graphcache.HD, AsyncRebuild: true}
}

// startFleet starts n backends over methods from newMethod, each
// configured as cmd/gcserved is by default (coalescer 64 / 2 ms), with a
// mutation journal under journalDir when that is set, and — with
// routed — a default replicate-mode gcrouter in front of them.
func startFleet(newMethod func() (graphcache.Method, error), n int, routed bool, journalDir string) (*fleet, error) {
	f := &fleet{served: make(chan error, n+1)}
	var addrs []string
	for i := 0; i < n; i++ {
		m, err := newMethod()
		if err != nil {
			f.stop()
			return nil, err
		}
		opts := graphcache.ServerOptions{
			Addr:     "127.0.0.1:0",
			MaxBatch: 64,
			MaxDelay: graphcache.DefaultCoalesceDelay,
			Logger:   quiet,
		}
		if journalDir != "" {
			opts.JournalPath = filepath.Join(journalDir, fmt.Sprintf("backend%d.journal", i))
		}
		srv := graphcache.NewServer(graphcache.New(m, cacheOptions()), opts)
		if err := srv.Start(); err != nil {
			f.stop()
			return nil, err
		}
		go func() { f.served <- srv.Serve() }()
		f.servers = append(f.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	if routed {
		rt, err := graphcache.NewRouter(graphcache.RouterOptions{
			Addr:     "127.0.0.1:0",
			Backends: addrs,
			Mode:     graphcache.RouteReplicate,
			Logger:   quiet,
		})
		if err == nil {
			err = rt.Start()
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		go func() { f.served <- rt.Serve() }()
		f.router = rt
	}
	return f, nil
}

// addr is where clients send: the router, or the only backend.
func (f *fleet) addr() string {
	if f.router != nil {
		return f.router.Addr()
	}
	return f.servers[0].Addr()
}

// stop shuts every listener down and waits for its Serve to return.
// Stopping a stopped fleet does nothing.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	n := len(f.servers)
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
		n++
	}
	for _, srv := range f.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for ; n > 0; n-- {
		errs = append(errs, <-f.served)
	}
	f.servers, f.router = nil, nil
	// The backends are gone; drop the pooled connections to them.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// fleetStats is the counters read from outside, through the router's
// GET /stats: its own, plus every backend's /stats.
type fleetStats struct {
	router   graphcache.RouterCounters
	backends []graphcache.ServerStatsResponse
}

func (f *fleet) stats(ctx context.Context) (fleetStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+f.addr()+"/stats", nil)
	if err != nil {
		return fleetStats{}, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return fleetStats{}, err
	}
	defer res.Body.Close()
	var rs graphcache.RouterStatsResponse
	if err := json.NewDecoder(res.Body).Decode(&rs); err != nil {
		return fleetStats{}, fmt.Errorf("decoding router /stats: %w", err)
	}
	out := fleetStats{router: rs.Router}
	for _, b := range rs.Backends {
		if b.Stats == nil {
			return fleetStats{}, fmt.Errorf("backend %s did not answer /stats", b.Addr)
		}
		out.backends = append(out.backends, *b.Stats)
	}
	return out, nil
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// Listener is one HTTP listener's lifecycle — bind, serve, shut down —
// shared by gcserved's listener and gcrouter's query and admin planes.
type Listener struct {
	addr string
	hs   *http.Server
	lis  net.Listener
}

// NewListener returns an unbound listener for the TCP address addr.
func NewListener(addr string) *Listener { return &Listener{addr: addr} }

// Listen binds the address and builds the http.Server that Serve runs h
// on. It does not serve yet.
func (l *Listener) Listen(h http.Handler) error {
	lis, err := net.Listen("tcp", l.addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", l.addr, err)
	}
	l.lis, l.hs = lis, newHTTPServer(h)
	return nil
}

// Addr returns the bound address once Listen has run (port 0 resolved to
// the actual port), the configured one before.
func (l *Listener) Addr() string {
	if l.lis == nil {
		return l.addr
	}
	return l.lis.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (l *Listener) Serve() error {
	if err := l.hs.Serve(l.lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown stops accepting, drains in-flight requests (bounded by ctx)
// and closes the socket, which http.Server.Shutdown leaves open when
// Serve never ran; after Serve it is closed already, and net.ErrClosed
// is not an error. An unbound listener has nothing to shut down.
func (l *Listener) Shutdown(ctx context.Context) error {
	if l.hs == nil {
		return nil
	}
	var errs []error
	if err := l.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := l.lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		errs = append(errs, fmt.Errorf("closing listener: %w", err))
	}
	return errors.Join(errs...)
}

// newHTTPServer is every listener's http.Server over h. Its Shutdown
// closes at once the connections that have not carried a request yet,
// where net/http waits up to 5 s for each one's first request: a client's
// connection pool (the router's to its backends, a load generator's to
// the router) keeps spare connections that it dialed during a burst and
// never used, and each would hold a graceful shutdown for those 5 s.
func newHTTPServer(h http.Handler) *http.Server {
	var mu sync.Mutex
	fresh := map[net.Conn]bool{}
	hs := &http.Server{Handler: h, ConnState: func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		if st == http.StateNew {
			fresh[c] = true
		} else {
			delete(fresh, c)
		}
	}}
	// Shutdown runs this once its listeners are closed, so no fresh
	// connection arrives after it.
	hs.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		for c := range fresh {
			c.Close()
		}
	})
	return hs
}

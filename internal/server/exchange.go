package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphcache/internal/telemetry"
)

// A hop is one HTTP/1.1 exchange run on the caller's goroutine: take an
// idle keep-alive connection to the server from the package's pool (or
// dial one), write the request head by hand and the body after it, and
// parse the reply with http.ReadResponse, so a chunked reply (GET
// /snapshot) reads as any other body. No goroutine sits between the
// caller and the socket, and nothing is copied into an http.Request
// first.

const (
	// idleConnsPerHost is how many idle connections the pool keeps open
	// to one server: at least gcrouter's dispatch slots per backend (64),
	// so a router that has had that many dispatches in flight to a
	// backend reuses each connection instead of re-dialing it. A
	// connection released past that is closed.
	idleConnsPerHost = 64
	// idleConnTimeout is how long a connection may sit idle in the pool;
	// older ones are closed the next time the pool is touched, so a
	// stopped or drained server's connections do not stay open.
	idleConnTimeout = 90 * time.Second
)

// connPool holds the idle keep-alive connections of every Client, per
// server address, most recently used last: a checkout takes the warmest
// connection, and the ones a burst left over age out at the bottom.
type connPool struct {
	now  func() time.Time // the clock idle ages are read on
	mu   sync.Mutex
	idle map[string][]*conn
}

// conns is the pool every Client shares.
var conns = newConnPool(time.Now)

func newConnPool(now func() time.Time) *connPool {
	return &connPool{now: now, idle: map[string][]*conn{}}
}

// conn is one keep-alive connection to a server.
type conn struct {
	net.Conn
	addr      string
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time
	live      liveness
}

// get takes the most recently idled connection to addr, or nil.
func (p *connPool) get(addr string) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweepLocked()
	s := p.idle[addr]
	if len(s) == 0 {
		return nil
	}
	c := s[len(s)-1]
	s[len(s)-1] = nil
	p.idle[addr] = s[:len(s)-1]
	return c
}

// put returns c to the pool, or closes it when idleConnsPerHost
// connections to its server are already idle.
func (p *connPool) put(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.sweepLocked()
	s := p.idle[c.addr]
	if len(s) >= idleConnsPerHost {
		c.Close()
		return
	}
	c.idleSince = now
	p.idle[c.addr] = append(s, c)
}

// sweepLocked closes every connection that has been idle for
// idleConnTimeout and returns the time now. A server's stack is oldest
// first, so only its bottom entries are read.
func (p *connPool) sweepLocked() time.Time {
	now := p.now()
	for addr, s := range p.idle {
		k := 0
		for k < len(s) && now.Sub(s[k].idleSince) >= idleConnTimeout {
			s[k].Close()
			k++
		}
		if k == 0 {
			continue
		}
		n := copy(s, s[k:])
		clear(s[n:])
		if n == 0 {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = s[:n]
		}
	}
	return now
}

// reuse returns a pooled connection to addr that is still open, with its
// deadline set, or nil.
func (p *connPool) reuse(addr string, deadline time.Time) *conn {
	for c := p.get(addr); c != nil; c = p.get(addr) {
		// The deadline goes first: the liveness check is a read.
		if c.SetDeadline(deadline) == nil && c.br.Buffered() == 0 && c.live.check() {
			return c
		}
		c.Close()
	}
	return nil
}

// dial opens a connection to addr with its deadline set.
func dial(ctx context.Context, addr string, deadline time.Time) (*conn, error) {
	d := net.Dialer{Timeout: 30 * time.Second, Deadline: deadline, KeepAlive: 30 * time.Second}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, err
	}
	c := &conn{Conn: nc, addr: addr, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	c.live.init(nc)
	return c, nil
}

// request is what one exchange sends besides the client's own address
// and the request id ctx carries.
type request struct {
	method, path string
	body         []byte // nil: no body (a GET)
	contentType  string
}

// exchange sends req to the client's server and reads the reply's head.
// The attempt's deadline — the earlier of ctx's and RequestTimeout from
// now — is the connection's, and ctx's cancellation moves it into the
// past, so a blocked write or read returns at once. The reply's Body must
// be closed; it returns the connection to the pool only when it was read
// to its end, the server did not ask to close, and ctx was not cancelled
// meanwhile. Closing never reads from the connection.
//
// A GET whose pooled connection fails before the reply's first byte is
// sent once more on a new connection, as net/http's Transport does: the
// server closed the connection as the request went out, and a health
// probe must not fail for that. Other methods are not re-sent.
func (cl *Client) exchange(ctx context.Context, req request) (*http.Response, error) {
	if cl.err != nil {
		return nil, cl.err
	}
	// Propagate the caller's request id so the whole fleet logs, traces
	// and responds under the id the front door minted.
	id := telemetry.RequestIDFrom(ctx)
	if !validHeaderValue(id) {
		return nil, fmt.Errorf("invalid request id %q", id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cl.opts.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c := cl.pool.reuse(cl.addr, deadline)
	for {
		reused := c != nil
		if !reused {
			var err error
			if c, err = dial(ctx, cl.addr, deadline); err != nil {
				return nil, attemptErr(ctx, err)
			}
		}
		res, replied, err := cl.send(ctx, c, req, id)
		if err == nil {
			return res, nil
		}
		if !reused || replied || req.method != http.MethodGet || ctx.Err() != nil || isTimeout(err) {
			return nil, attemptErr(ctx, err)
		}
		c = nil
	}
}

// send runs req, carrying request id id, on c: it returns the reply with
// a Body that hands c back, or the error, with c closed, and whether any
// byte of a reply had arrived.
func (cl *Client) send(ctx context.Context, c *conn, req request, id string) (*http.Response, bool, error) {
	rb := &replyBody{ctx: ctx, c: c, pool: cl.pool}
	if ctx.Done() != nil {
		rb.stop = context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	}
	res, replied, err := cl.roundTrip(c, req, id)
	if err != nil {
		rb.Close()
		return nil, replied, err
	}
	rb.body, rb.left, rb.keep = res.Body, res.ContentLength, !res.Close
	rb.done = rb.left == 0
	res.Body = rb
	return res, true, nil
}

// aLongTimeAgo is a deadline that has passed: setting it makes a blocked
// read or write on the connection return at once.
var aLongTimeAgo = time.Unix(1, 0)

// roundTrip writes req, carrying request id id, on c and reads the
// reply's head, reporting whether any byte of a reply arrived. The
// request goes through c's write buffer, so a small one is one write; the
// buffer's error is sticky, so Flush reports the first write that failed.
func (cl *Client) roundTrip(c *conn, req request, id string) (*http.Response, bool, error) {
	w := c.bw
	w.WriteString(req.method)
	w.WriteByte(' ')
	w.WriteString(cl.prefix)
	w.WriteString(req.path)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(cl.host)
	if req.body != nil {
		w.WriteString("\r\nContent-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(req.body)), 10))
	}
	writeHeader(w, "Content-Type", req.contentType)
	writeHeader(w, telemetry.RequestIDHeader, id)
	w.WriteString("\r\n\r\n")
	w.Write(req.body)
	if err := w.Flush(); err != nil {
		return nil, false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, err
	}
	res, err := http.ReadResponse(c.br, nil)
	return res, true, err
}

// writeHeader writes "\r\nname: value" unless value is empty.
func writeHeader(w *bufio.Writer, name, value string) {
	if value == "" {
		return
	}
	w.WriteString("\r\n")
	w.WriteString(name)
	w.WriteString(": ")
	w.WriteString(value)
}

// validHeaderValue reports whether v may be sent as a header value as is:
// no control byte but tab, so no CR or LF can end the header early and
// inject another.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// attemptErr names what ended an attempt: ctx's error once ctx is done
// (its cancel hook is what broke the I/O), context.DeadlineExceeded when
// the attempt deadline passed, else err itself.
func attemptErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if isTimeout(err) {
		return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
	}
	return err
}

// isTimeout reports whether err is a connection's deadline passing.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// replyBody is a reply's Body: it counts down a Content-Length body, so
// a reader that stops at the last byte has still read it to its end, and
// on Close hands the connection back to the pool or closes it.
type replyBody struct {
	ctx    context.Context
	c      *conn // nil once closed
	pool   *connPool
	stop   func() bool // unregisters ctx's cancel hook; nil without one
	body   io.ReadCloser
	left   int64 // bytes of a Content-Length body not yet read; -1 when unknown
	done   bool  // the body was read to its end
	broken bool  // a read failed
	keep   bool  // the server allows the connection to be reused
}

func (rb *replyBody) Read(p []byte) (int, error) {
	if rb.c == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := rb.body.Read(p)
	if rb.left > 0 {
		if rb.left -= int64(n); rb.left == 0 {
			rb.done = true
		}
	}
	switch {
	case err == io.EOF:
		rb.done = true
	case err != nil:
		rb.broken = true
		err = attemptErr(rb.ctx, err)
	}
	return n, err
}

func (rb *replyBody) Close() error {
	c := rb.c
	if c == nil {
		return nil
	}
	rb.c = nil
	reuse := rb.done && !rb.broken && rb.keep
	if rb.stop != nil && !rb.stop() {
		reuse = false // the hook fired: the deadline is in the past
	}
	if reuse {
		rb.pool.put(c)
	} else {
		c.Close()
	}
	return nil
}

//go:build unix

package server

import (
	"net"
	"syscall"
)

// liveness tells whether a pooled connection is still open: a
// non-blocking MSG_PEEK on its socket must find nothing to read. A peer
// that closed the connection while it sat idle left an EOF there (or a
// reset), and one that sent anything between replies broke the protocol;
// either way the connection is not reused.
type liveness struct {
	rc   syscall.RawConn // nil when the connection has no socket
	peek func(fd uintptr) bool
	buf  [1]byte
	open bool
}

func (l *liveness) init(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	l.rc = rc
	l.peek = func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), l.buf[:], syscall.MSG_PEEK)
		l.open = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR
		return true // never wait for the socket to become readable
	}
}

// check peeks at the socket once, without blocking.
func (l *liveness) check() bool {
	if l.rc == nil {
		return true
	}
	l.open = false
	return l.rc.Read(l.peek) == nil && l.open
}

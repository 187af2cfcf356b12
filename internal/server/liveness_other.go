//go:build !unix

package server

import "net"

// liveness is the stale-connection guard of liveness_unix.go. Without a
// non-blocking peek, a pooled connection is assumed open, and one the
// peer closed while it sat idle fails its next exchange unless that is
// a GET, which exchange sends once more on a new connection.
type liveness struct{}

func (*liveness) init(net.Conn) {}

func (*liveness) check() bool { return true }

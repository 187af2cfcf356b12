package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"graphcache/internal/core"
)

// Snapshot integrity: every snapshot this package writes — the shutdown
// and periodic files, and the GET /snapshot stream — ends with a
// checksummed trailer line over everything before it:
//
//	gcsnapsum crc32 <8-hex-digits> <byte-count>
//
// The fsync+rename writer already prevents a crash from installing a
// half-written file under the snapshot path, but it cannot protect the
// bytes afterwards (filesystem corruption, torn copies, a truncating
// transfer). The trailer makes every such mangling detectable at load:
// a truncated file has no trailer, a corrupted one fails the CRC, and
// either way the daemon quarantines the file and starts cold instead of
// refusing to serve — or, on the warm-up path, refuses the peer's
// stream before installing it.

const snapTrailerPrefix = "gcsnapsum crc32 "

// errSnapshotCorrupt tags integrity failures (missing trailer, length or
// CRC mismatch) apart from ordinary I/O errors.
var errSnapshotCorrupt = errors.New("server: corrupt snapshot")

// crcWriter tees the byte count and running CRC-32 of everything written
// through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

// writeCheckedSnapshot writes c's snapshot followed by the integrity
// trailer. Safe against a concurrently serving cache: WriteSnapshot reads
// the atomically published index generation under the rebuild lock.
func writeCheckedSnapshot(c *core.Cache, w io.Writer) error {
	cw := &crcWriter{w: w}
	if err := c.WriteSnapshot(cw); err != nil {
		return err
	}
	_, err := io.WriteString(w, trailerLine(cw.crc, cw.n)+"\n")
	return err
}

// splitChecked verifies data's trailer and returns the snapshot body in
// front of it. The last line must be exactly the trailer
// writeCheckedSnapshot writes for the bytes in front of it. Every failure
// mode — no trailer (truncation ate it), a length mismatch (truncation or
// concatenation), a CRC mismatch (corruption) or any other byte in the
// trailer line — wraps errSnapshotCorrupt.
func splitChecked(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("%w: no trailer (truncated?)", errSnapshotCorrupt)
	}
	start := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	trailer := string(data[start : len(data)-1])
	if !strings.HasPrefix(trailer, snapTrailerPrefix) {
		return nil, fmt.Errorf("%w: last line %q is not a trailer", errSnapshotCorrupt, trailer)
	}
	body := data[:start]
	if want := trailerLine(crc32.ChecksumIEEE(body), int64(len(body))); trailer != want {
		return nil, fmt.Errorf("%w: trailer %q, the %d bytes before it want %q", errSnapshotCorrupt, trailer, len(body), want)
	}
	return body, nil
}

// trailerLine is the trailer, without its newline, for a snapshot body of
// n bytes with CRC-32 crc.
func trailerLine(crc uint32, n int64) string {
	return fmt.Sprintf("%s%08x %d", snapTrailerPrefix, crc, n)
}

// fetchSnapshot downloads a peer's GET /snapshot and verifies its
// trailer before returning the body — a truncated or corrupted transfer
// is refused here, never installed. Only ctx bounds the download: a
// large snapshot over a slow link may take longer than any one query.
func fetchSnapshot(ctx context.Context, peer string) ([]byte, error) {
	cl := NewClientWith(peer, ClientOptions{RequestTimeout: math.MaxInt64})
	res, err := cl.exchange(ctx, request{method: http.MethodGet, path: "/snapshot"})
	if err != nil {
		return nil, fmt.Errorf("server: fetching snapshot from %s: %w", peer, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: fetching snapshot from %s: %s", peer, res.Status)
	}
	data, err := readBody(res)
	if err != nil {
		return nil, fmt.Errorf("server: reading snapshot from %s: %w", peer, err)
	}
	return splitChecked(data)
}

// snapshotLoop writes the snapshot file every interval until stop —
// crash-safety's other half: with only the shutdown write, a SIGKILL or
// power loss forfeits everything learned since startup; with periodic
// writes the loss is bounded by one interval. Each write goes through
// the same fsync+rename path as shutdown, so a crash mid-write leaves
// the previous snapshot intact.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.opts.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.persist(); err != nil {
				logf("server: periodic snapshot: %v", err)
			}
		}
	}
}

package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// Cache persistence (§6.1): the paper's Cache stores are "loaded from
// disk on startup and written back to disk on shutdown of the Cache
// Manager subsystem". WriteSnapshot and ReadSnapshot implement that
// lifecycle: a snapshot captures the cached queries, their answer sets,
// their statistics rows, the serial counter and the calibrated admission
// threshold, in a versioned line-oriented text format.
//
// The snapshot is bound to the dataset it was written over: the header
// records the dataset's mutation epoch, the highest applied
// mutation sequence number, the current and base dataset fingerprints
// (graph count + order-sensitive content hash) and the mutation delta —
// removed IDs plus added/edited graphs — so a restart can rebuild the
// exact post-mutation dataset from the base dataset file, and a snapshot
// loaded against the wrong dataset fails with ErrDatasetMismatch instead
// of silently serving wrong answers.
//
// The format is deliberately human-readable and append-friendly:
//
//	gcsnapshot 2
//	epoch <epoch> <seq>
//	dataset <live> <idspace> <fingerprint-hex>
//	base <count> <fingerprint-hex>
//	removed <count> <id> <id> ...          (omitted when empty)
//	delta <count> <id> <id> ...            (omitted when empty)
//	serial <n>
//	admission <threshold> <calibrated:0|1>
//	entries <count>
//	entry <serial> <answer-count> <id> <id> ...
//	stat <serial> <column> <value>         (twelve per entry, sorted by column)
//	graphs
//	t # 0 / v ... / e ...                  (one graph per entry, in order,
//	                                        then one per delta id)
//
// Version 1 (no dataset binding; no writer has produced it since the
// binding landed) is rejected like any other non-snapshot.

const snapshotMagic = "gcsnapshot 2"

// ErrDatasetMismatch is returned by ReadSnapshot when a snapshot's
// recorded dataset fingerprints do not match the dataset the cache is
// serving: loading it would mean answering queries with another
// dataset's graph IDs. Callers should quarantine the snapshot and start
// cold.
var ErrDatasetMismatch = errors.New("core: snapshot was written over a different dataset")

// SnapshotInfo describes a written snapshot: what epoch and mutation
// sequence number it captured, and how many entries it holds. Servers
// use it to truncate the mutation journal after a successful write.
type SnapshotInfo struct {
	Epoch   int64
	Seq     int64
	Entries int
}

// WriteSnapshot serialises the current cache contents in serial order.
// Every window filled before the call is applied first; the entries of a
// window that is not full yet are not included.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	_, err := c.WriteSnapshotInfo(w)
	return err
}

// WriteSnapshotInfo is WriteSnapshot, also reporting the captured epoch,
// mutation sequence number and entry count.
func (c *Cache) WriteSnapshotInfo(w io.Writer) (SnapshotInfo, error) {
	// The window barrier puts every window queued before this call into
	// the snapshot. The rebuild lock then keeps window passes and
	// mutations out for the duration, so the index generation, the
	// statistics, the dataset epoch and its delta are captured
	// consistently while queries keep being served.
	c.Flush()
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()

	entries := c.index.Load().slotEntry // slot order is serial order
	rows := c.entryStats(entries)

	ds := c.m.Dataset()
	removed, changed := ds.Delta()
	info := SnapshotInfo{Epoch: ds.Epoch(), Seq: c.lastSeq.Load(), Entries: len(entries)}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	fmt.Fprintf(bw, "epoch %d %d\n", info.Epoch, info.Seq)
	fmt.Fprintf(bw, "dataset %d %d %016x\n", ds.Live(), ds.Len(), ds.Fingerprint())
	fmt.Fprintf(bw, "base %d %016x\n", ds.BaseLen(), ds.BaseFingerprint())
	if len(removed) > 0 {
		fmt.Fprintf(bw, "removed %d", len(removed))
		for _, id := range removed {
			fmt.Fprintf(bw, " %d", id)
		}
		fmt.Fprintln(bw)
	}
	if len(changed) > 0 {
		fmt.Fprintf(bw, "delta %d", len(changed))
		for _, g := range changed {
			fmt.Fprintf(bw, " %d", g.ID())
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "serial %d\n", c.serial.Load())

	c.admMu.Lock()
	calibrated := 0
	if c.adm.enabled && !c.adm.calibrating {
		calibrated = 1
	}
	fmt.Fprintf(bw, "admission %g %d\n", c.adm.threshold, calibrated)
	c.admMu.Unlock()

	fmt.Fprintf(bw, "entries %d\n", len(entries))
	graphs := make([]*graph.Graph, 0, len(entries)+len(changed))
	line := make([]byte, 0, 256) // reused: one fmt call per answer id is the old slow path
	for i, e := range entries {
		line = append(line[:0], "entry "...)
		line = strconv.AppendInt(line, e.serial, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(len(e.answer)), 10)
		for _, id := range e.answer {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(id), 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return info, fmt.Errorf("core: writing snapshot entry: %w", err)
		}
		for k, v := range rows[i].columns() {
			fmt.Fprintf(bw, "stat %d %s %g\n", e.serial, statColumns[k], v)
		}
		graphs = append(graphs, e.g)
	}
	fmt.Fprintln(bw, "graphs")
	graphs = append(graphs, changed...) // delta graphs trail the entry graphs
	if err := graph.Write(bw, graphs); err != nil {
		return info, fmt.Errorf("core: writing snapshot graphs: %w", err)
	}
	return info, bw.Flush()
}

// ReadSnapshot replaces the cache contents — and, for a snapshot
// carrying a mutation delta, the dataset generation — with a snapshot
// previously produced by WriteSnapshot over the same base dataset. The
// query index is rebuilt synchronously; statistics rows for
// the loaded queries are restored (a stat line naming an unknown column
// fails the load); the highest applied mutation sequence
// number is restored so journal replay and fleet fan-out dedup resume
// correctly. A snapshot whose recorded fingerprints do not match the
// dataset fails with ErrDatasetMismatch (wrapped) and leaves the dataset
// on its pristine base.
func (c *Cache) ReadSnapshot(r io.Reader) error {
	// Loading is a whole-cache replacement: take the same exclusivity a
	// mutation takes (blocks new queries, drains in-flight ones and queued
	// window passes), so warm-from-peer can load into a serving cache.
	c.mutApplyMu.Lock()
	defer c.mutApplyMu.Unlock()
	c.beginExclusive()
	defer c.endExclusive()

	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if line != snapshotMagic {
		return fmt.Errorf("core: not a %s (got %q)", snapshotMagic, line)
	}

	var serial, epoch, seq int64
	var threshold float64
	var dsLive, dsLen, baseLen int
	var dsFP, baseFP uint64
	var haveDataset bool
	var removedIDs, deltaIDs []int32
	calibrated := 0
	nEntries := -1
	type pending struct {
		serial int64
		answer []int32
		ledger
	}
	var entries []*pending
	cached := map[int64]*pending{}

	parseIDs := func(fields []string, what string) ([]int32, error) {
		n, err := strconv.Atoi(fields[1])
		if err != nil || n != len(fields)-2 {
			return nil, fmt.Errorf("core: bad %s line %q", what, strings.Join(fields, " "))
		}
		ids := make([]int32, 0, n)
		for _, f := range fields[2:] {
			id, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("core: bad %s id %q: %w", what, f, err)
			}
			ids = append(ids, int32(id))
		}
		return ids, nil
	}

	for {
		line, err = readLine(br)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "epoch":
			if len(fields) != 3 {
				return fmt.Errorf("core: bad epoch line %q", line)
			}
			if epoch, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fmt.Errorf("core: bad epoch line %q: %w", line, err)
			}
			if seq, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
				return fmt.Errorf("core: bad epoch line %q: %w", line, err)
			}
		case "dataset":
			if len(fields) != 4 {
				return fmt.Errorf("core: bad dataset line %q", line)
			}
			if dsLive, err = strconv.Atoi(fields[1]); err != nil {
				return fmt.Errorf("core: bad dataset line %q: %w", line, err)
			}
			if dsLen, err = strconv.Atoi(fields[2]); err != nil {
				return fmt.Errorf("core: bad dataset line %q: %w", line, err)
			}
			if dsFP, err = strconv.ParseUint(fields[3], 16, 64); err != nil {
				return fmt.Errorf("core: bad dataset line %q: %w", line, err)
			}
			haveDataset = true
		case "base":
			if len(fields) != 3 {
				return fmt.Errorf("core: bad base line %q", line)
			}
			if baseLen, err = strconv.Atoi(fields[1]); err != nil {
				return fmt.Errorf("core: bad base line %q: %w", line, err)
			}
			if baseFP, err = strconv.ParseUint(fields[2], 16, 64); err != nil {
				return fmt.Errorf("core: bad base line %q: %w", line, err)
			}
		case "removed":
			if removedIDs, err = parseIDs(fields, "removed"); err != nil {
				return err
			}
		case "delta":
			if deltaIDs, err = parseIDs(fields, "delta"); err != nil {
				return err
			}
		case "serial":
			if len(fields) != 2 {
				return fmt.Errorf("core: bad serial line %q", line)
			}
			serial, err = strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("core: bad serial line %q: %w", line, err)
			}
		case "admission":
			if len(fields) != 3 {
				return fmt.Errorf("core: bad admission line %q", line)
			}
			threshold, err = strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return fmt.Errorf("core: bad admission line %q: %w", line, err)
			}
			calibrated, err = strconv.Atoi(fields[2])
			if err != nil {
				return fmt.Errorf("core: bad admission line %q: %w", line, err)
			}
		case "entries":
			if len(fields) != 2 {
				return fmt.Errorf("core: bad entries line %q", line)
			}
			nEntries, err = strconv.Atoi(fields[1])
			if err != nil {
				return fmt.Errorf("core: bad entries line %q: %w", line, err)
			}
		case "entry":
			if len(fields) < 3 {
				return fmt.Errorf("core: bad entry line %q", line)
			}
			s, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("core: bad entry line %q: %w", line, err)
			}
			k, err := strconv.Atoi(fields[2])
			if err != nil || k != len(fields)-3 {
				return fmt.Errorf("core: bad entry line %q", line)
			}
			if cached[s] != nil {
				return fmt.Errorf("core: duplicate entry serial %d", s)
			}
			p := &pending{serial: s}
			for _, f := range fields[3:] {
				id, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return fmt.Errorf("core: bad answer id in %q: %w", line, err)
				}
				p.answer = append(p.answer, int32(id))
			}
			entries = append(entries, p)
			cached[s] = p
		case "stat":
			if len(fields) != 4 {
				return fmt.Errorf("core: bad stat line %q", line)
			}
			s, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("core: bad stat line %q: %w", line, err)
			}
			v, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return fmt.Errorf("core: bad stat line %q: %w", line, err)
			}
			p := cached[s]
			if p == nil {
				return fmt.Errorf("core: stat for unknown entry %d", s)
			}
			if err := p.setColumn(fields[2], v); err != nil {
				return err
			}
		case "graphs":
			goto graphsSection
		default:
			return fmt.Errorf("core: unknown snapshot line %q", line)
		}
	}

graphsSection:
	if nEntries < 0 || nEntries != len(entries) {
		return fmt.Errorf("core: snapshot declares %d entries, has %d", nEntries, len(entries))
	}
	graphs, err := graph.Parse(br)
	if err != nil {
		return fmt.Errorf("core: parsing snapshot graphs: %w", err)
	}
	if len(graphs) != len(entries)+len(deltaIDs) {
		return fmt.Errorf("core: snapshot has %d graphs for %d entries + %d delta graphs",
			len(graphs), len(entries), len(deltaIDs))
	}

	ds := c.m.Dataset()
	if !haveDataset {
		return fmt.Errorf("core: snapshot missing dataset line")
	}
	// The snapshot must have been written over the same base dataset:
	// same constructed length, same content hash. Checked before any
	// state is touched.
	if baseLen != ds.BaseLen() || baseFP != ds.BaseFingerprint() {
		return fmt.Errorf("%w: snapshot base %d graphs fp %016x, dataset base %d graphs fp %016x",
			ErrDatasetMismatch, baseLen, baseFP, ds.BaseLen(), ds.BaseFingerprint())
	}
	deltaGraphs := graphs[len(entries):]
	for i, g := range deltaGraphs {
		g.SetID(deltaIDs[i]) // authoritative IDs come from the delta line
	}
	if epoch != 0 || ds.Mutated() {
		dm, ok := c.m.(method.DynamicMethod)
		if !ok {
			return fmt.Errorf("%w: snapshot carries a dataset delta but method %s is static",
				ErrStaticMethod, c.m.Name())
		}
		if err := ds.Restore(removedIDs, deltaGraphs, epoch); err != nil {
			return fmt.Errorf("core: restoring snapshot dataset delta: %w", err)
		}
		if ds.Live() != dsLive || ds.Len() != dsLen || ds.Fingerprint() != dsFP {
			// The delta replayed but produced different content — the
			// snapshot belongs to a diverged dataset. Roll back to the
			// pristine base so the caller starts cold on known state.
			_ = ds.Restore(nil, nil, 0)
			return fmt.Errorf("%w: restored delta fingerprint %016x does not match recorded %016x",
				ErrDatasetMismatch, ds.Fingerprint(), dsFP)
		}
		// Re-sync the method's filtering structures with the restored
		// generation: every live base-range graph re-asserted as edited,
		// additions as added. Idempotent for all bundled methods.
		resyncMethod(dm, ds)
	} else if ds.Fingerprint() != dsFP {
		return fmt.Errorf("%w: snapshot dataset fp %016x, live dataset fp %016x",
			ErrDatasetMismatch, dsFP, ds.Fingerprint())
	}

	// The entries, their feature vectors extracted in parallel.
	loaded := make([]*entry, len(entries))
	c.pool.ParallelFor(len(loaded), func(i int) {
		p := entries[i]
		g := graphs[i]
		loaded[i] = newEntry(p.serial, g, p.answer, pathfeat.SimplePathVector(g, c.opts.MaxPathLen), g.IsoKey())
		loaded[i].ledger = p.ledger
	})

	// Install: contents, counters, admission — mirrors the startup
	// path of the paper's Cache Manager.
	c.winMu.Lock()
	c.window = nil
	c.winMu.Unlock()
	if serial > c.serial.Load() {
		c.serial.Store(serial)
	}
	c.lastSeq.Store(seq)
	c.admMu.Lock()
	c.adm.threshold = threshold
	if calibrated == 1 && c.adm.enabled {
		c.adm.calibrating = false
		c.adm.scores = nil
	}
	c.admMu.Unlock()
	c.syncGraphCosts()
	c.index.Store(buildQueryIndex(loaded, c.opts.MaxPathLen))
	return nil
}

// resyncMethod re-asserts the restored dataset generation into a dynamic
// method's filtering structures: live base-range graphs as edits,
// additions as adds, tombstones as removals. For the bundled methods
// this is idempotent whatever local state preceded the restore (GGSX
// and Grapes purge before re-inserting, CT-Index recomputes
// fingerprints).
func resyncMethod(dm method.DynamicMethod, ds interface {
	Len() int
	BaseLen() int
	Graph(int32) *graph.Graph
}) {
	var added, edited []*graph.Graph
	var removed []int32
	for id := 0; id < ds.Len(); id++ {
		g := ds.Graph(int32(id))
		switch {
		case g == nil:
			removed = append(removed, int32(id))
		case id >= ds.BaseLen():
			added = append(added, g)
		default:
			edited = append(edited, g)
		}
	}
	dm.ApplyDatasetMutation(added, edited, removed)
}

// readLine reads one \n-terminated line, trimming the terminator.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

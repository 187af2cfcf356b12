package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
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

// WriteSnapshot serialises the current cache contents in serial order.
// Every window filled before the call is applied first; the entries of a
// window that is not full yet are not included.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	// The window barrier puts every window queued before this call into
	// the snapshot. mutApplyMu then keeps mutations and snapshot loads out
	// for the duration, so the dataset epoch and its delta stay put; the
	// entries come from one immutable index generation, so queries keep
	// being served and window passes keep landing meanwhile.
	c.Flush()
	c.mutApplyMu.Lock()
	defer c.mutApplyMu.Unlock()

	entries := c.index.Load().slotEntry // slot order is serial order
	rows := c.entryStats(entries)

	ds := c.m.Dataset()
	removed, changed := ds.Delta()

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	fmt.Fprintf(bw, "epoch %d %d\n", ds.Epoch(), c.lastSeq.Load())
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
			return fmt.Errorf("core: writing snapshot entry: %w", err)
		}
		for k, v := range rows[i].columns() {
			fmt.Fprintf(bw, "stat %d %s %g\n", e.serial, statColumns[k], v)
		}
		graphs = append(graphs, e.g)
	}
	fmt.Fprintln(bw, "graphs")
	graphs = append(graphs, changed...) // delta graphs trail the entry graphs
	if err := graph.Write(bw, graphs); err != nil {
		return fmt.Errorf("core: writing snapshot graphs: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot replaces the cache contents — and, for a snapshot
// carrying a mutation delta, the dataset generation — with a snapshot
// previously produced by WriteSnapshot over the same base dataset. The
// query index is rebuilt synchronously; statistics rows for
// the loaded queries are restored (a stat line naming an unknown column
// fails the load); the highest applied mutation sequence
// number is restored so journal replay and fleet fan-out dedup resume
// correctly. A snapshot whose recorded fingerprints do not match the
// dataset fails with ErrDatasetMismatch (wrapped), and one whose cached
// answers are not ascending live IDs of the restored dataset fails too;
// both leave the dataset on its pristine base.
func (c *Cache) ReadSnapshot(r io.Reader) error {
	// Loading is a whole-cache replacement: take the same exclusivity a
	// mutation takes (blocks new queries, waits for in-flight ones and
	// with them their window passes), so warm-from-peer can load into a
	// serving cache.
	c.mutApplyMu.Lock()
	defer c.mutApplyMu.Unlock()
	c.gate.Lock()
	defer c.gate.Unlock()

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
		if len(fields) < 2 {
			return nil, fmt.Errorf("core: bad %s line %q", what, strings.Join(fields, " "))
		}
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
			err = scanLine(line, "epoch %d %d", &epoch, &seq)
		case "dataset":
			err, haveDataset = scanLine(line, "dataset %d %d %x", &dsLive, &dsLen, &dsFP), true
		case "base":
			err = scanLine(line, "base %d %x", &baseLen, &baseFP)
		case "removed":
			removedIDs, err = parseIDs(fields, "removed")
		case "delta":
			deltaIDs, err = parseIDs(fields, "delta")
		case "serial":
			err = scanLine(line, "serial %d", &serial)
		case "admission":
			err = scanLine(line, "admission %g %d", &threshold, &calibrated)
		case "entries":
			err = scanLine(line, "entries %d", &nEntries)
		case "entry":
			p := &pending{}
			if p.answer, err = parseIDs(fields[1:], "entry"); err != nil {
				return err
			}
			if p.serial, err = strconv.ParseInt(fields[1], 10, 64); err != nil || cached[p.serial] != nil {
				return fmt.Errorf("core: bad or duplicate entry serial in %q", line)
			}
			entries = append(entries, p)
			cached[p.serial] = p
		case "stat": // twelve per entry: parsed without fmt's scanner
			if len(fields) != 4 {
				return fmt.Errorf("core: bad stat line %q", line)
			}
			s, serr := strconv.ParseInt(fields[1], 10, 64)
			v, verr := strconv.ParseFloat(fields[3], 64)
			if err = errors.Join(serr, verr); err != nil {
				return fmt.Errorf("core: bad stat line %q: %w", line, err)
			}
			if p := cached[s]; p == nil {
				err = fmt.Errorf("core: stat for unknown entry %d", s)
			} else {
				err = p.setColumn(fields[2], v)
			}
		case "graphs":
			goto graphsSection
		default:
			return fmt.Errorf("core: unknown snapshot line %q", line)
		}
		if err != nil {
			return err
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
	// Every answer must be ascending live IDs of the restored dataset:
	// prune lifts answer IDs into query answers unverified, and every set
	// operation on them is a sorted merge.
	badAnswer := func() error {
		for _, p := range entries {
			for i, id := range p.answer {
				if !ds.Alive(id) || i > 0 && id <= p.answer[i-1] {
					return fmt.Errorf("core: entry %d's answer holds %d, not the next ascending live graph ID", p.serial, id)
				}
			}
		}
		return nil
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
		// Every ID from the base up is an addition or a removal, so the
		// lines naming them bound the ID space Restore allocates.
		ids := slices.Concat(removedIDs, deltaIDs)
		if dsLen > baseLen+len(ids) || slices.ContainsFunc(ids, func(id int32) bool { return int(id) >= dsLen }) {
			return fmt.Errorf("core: snapshot dataset of %d IDs outgrows its %d removed and delta IDs", dsLen, len(ids))
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
		if err := badAnswer(); err != nil {
			_ = ds.Restore(nil, nil, 0)
			return err
		}
		// Re-sync the method's filtering structures with the restored
		// generation: every live base-range graph re-asserted as edited,
		// additions as added. Idempotent for all bundled methods.
		resyncMethod(dm, ds)
	} else if ds.Fingerprint() != dsFP {
		return fmt.Errorf("%w: snapshot dataset fp %016x, live dataset fp %016x",
			ErrDatasetMismatch, dsFP, ds.Fingerprint())
	} else if err := badAnswer(); err != nil {
		return err
	}

	// The entries, their feature vectors extracted in parallel.
	loaded := make([]*entry, len(entries))
	c.pool.ParallelFor(len(loaded), func(i int) {
		p := entries[i]
		g := graphs[i]
		loaded[i] = newEntry(p.serial, g, p.answer, pathfeat.SimplePathVector(g, maxPathLen), g.IsoKey())
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
	c.index.Store(buildQueryIndex(loaded))
	return nil
}

// resyncMethod re-asserts the restored dataset generation into a dynamic
// method's filtering structures: live base-range graphs as edits,
// additions as adds, tombstones as removals. For the bundled methods
// this is idempotent whatever local state preceded the restore, and it
// costs what differs from it: GGSX and Grapes skip every graph they
// already index (the same graph pointer; a restore keeps the base
// dataset's graphs) and purge an ID before re-inserting it; CT-Index
// recomputes fingerprints.
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

// scanLine parses a snapshot line that holds exactly the fields of
// format, whose first word names the line.
func scanLine(line, format string, args ...any) error {
	if len(strings.Fields(line)) != len(args)+1 {
		return fmt.Errorf("core: bad %s line %q", strings.Fields(format)[0], line)
	}
	if _, err := fmt.Sscanf(line, format, args...); err != nil {
		return fmt.Errorf("core: bad %s line %q: %w", strings.Fields(format)[0], line, err)
	}
	return nil
}

// readLine reads one \n-terminated line, trimming the terminator.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

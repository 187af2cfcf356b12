package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// The mutation journal is gcserved's write-ahead log for dataset
// mutations: every acked POST /mutate is appended and fsynced *before*
// the acknowledgement leaves the server, so a SIGKILL or power loss at
// any instant loses zero acked mutations. On restart the daemon loads
// the snapshot (which records the dataset epoch it captured), then
// replays the journal's records whose epoch exceeds it, arriving at
// exactly the pre-crash dataset. The journal holds only what the last
// snapshot lacks: once a snapshot covering every record is durable, the
// journal is truncated to zero in place, which bounds replay time.
//
// The format is one JSON object per line:
//
//	{"op":"add","graphs":"t # 0\n...","seq":12,"epoch":5}
//
// epoch is the dataset epoch *after* the record applies — mutations
// advance the epoch by exactly one, so replay can both order records
// and detect divergence. A torn final line (the crash hit mid-append)
// is discarded on open: its mutation was never acked, because the ack
// only follows a completed fsync. A record that failed to append or to
// apply is cut off again before its mutation is answered, so the file
// never holds a mutation that was answered with an error.

// journalRecord is one durable mutation: the request it journals plus
// its epoch. Keys are read in any order, and fields journals of older
// versions carry (added_ids) are ignored on read.
type journalRecord struct {
	MutateRequest
	Epoch int64 `json:"epoch"`
}

// journal is an append-only, fsync-on-append record log. size is the
// length of the file's well-formed records, where the next append
// writes; last is the epoch of the final record (0 when empty).
type journal struct {
	f    *os.File
	size int64
	last int64
}

// openJournal opens (creating if absent) the journal at path and returns
// it together with the records already on disk, in order. A torn or
// unparseable final line is tolerated — truncated away so the next
// append starts on a clean boundary; garbage *before* the final line is
// an error (the file is not a journal).
func openJournal(path string) (*journal, []journalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("server: reading mutation journal: %w", err)
	}
	var recs []journalRecord
	valid := 0 // byte offset of the end of the last well-formed record
	for off := 0; off < len(data); {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // unterminated tail: torn mid-append
		}
		var rec journalRecord
		if err := json.Unmarshal(data[off:nl], &rec); err != nil {
			if nl == len(data)-1 {
				break // torn final line (partial write then crash)
			}
			return nil, nil, fmt.Errorf("server: mutation journal %s corrupt at byte %d: %w", path, off, err)
		}
		recs = append(recs, rec)
		valid = nl + 1
		off = nl + 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening mutation journal: %w", err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: trimming torn journal tail: %w", err)
	}
	j := &journal{f: f, size: int64(valid)}
	if len(recs) > 0 {
		j.last = recs[len(recs)-1].Epoch
	}
	return j, recs, nil
}

// append writes one record and forces it to stable storage. Only after
// append returns may the mutation be acknowledged. A failed append cuts
// the file back to where it started, so the next record takes its place.
func (j *journal) append(rec journalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: encoding journal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.WriteAt(line, j.size); err != nil {
		return errors.Join(fmt.Errorf("server: appending to mutation journal: %w", err), j.truncate(j.size, j.last))
	}
	if err := fsync(j.f); err != nil {
		return errors.Join(fmt.Errorf("server: syncing mutation journal: %w", err), j.truncate(j.size, j.last))
	}
	j.size += int64(len(line))
	j.last = rec.Epoch
	return nil
}

// truncate cuts the file back to size bytes, whose final record has
// epoch last, and syncs it: truncate(0, 0) empties the journal once a
// snapshot covers it, and a mutation that fails after its append takes
// its record back out with the size and epoch it saw before.
func (j *journal) truncate(size, last int64) error {
	if err := j.f.Truncate(size); err != nil {
		return fmt.Errorf("server: truncating mutation journal: %w", err)
	}
	j.size, j.last = size, last
	if err := fsync(j.f); err != nil {
		return fmt.Errorf("server: syncing truncated mutation journal: %w", err)
	}
	return nil
}

// Close releases the append handle.
func (j *journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

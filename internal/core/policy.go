package core

import (
	"fmt"
	"sort"
)

// PolicyKind selects a cache replacement policy (§6.3). All policies
// assign each cached query a utility value and evict the lowest-utility
// entries; ties break towards evicting the older (smaller serial) entry.
type PolicyKind int

const (
	// LRU evicts the least recently used entry: utility = last-hit serial.
	LRU PolicyKind = iota
	// POP (Popularity-based Ranking) uses H/A — hits over age, where age
	// is the difference between the current serial and the entry's own.
	POP
	// PIN (Popularity and sub-Iso test Number) uses R/A — total sub-iso
	// tests alleviated over age. GraphCache exclusive.
	PIN
	// PINC (PIN + Costs) uses C/A — total estimated time saving over age.
	// GraphCache exclusive.
	PINC
	// HD (Hybrid Dynamic) computes the squared coefficient of variation
	// of the cached R values: high variability (CoV² > 1) means R alone is
	// discriminative, so PIN is used; otherwise PINC. GraphCache
	// exclusive.
	HD
)

// ParsePolicy converts a policy name to its kind.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "lru", "LRU":
		return LRU, nil
	case "pop", "POP":
		return POP, nil
	case "pin", "PIN":
		return PIN, nil
	case "pinc", "PINC":
		return PINC, nil
	case "hd", "HD":
		return HD, nil
	}
	return LRU, fmt.Errorf("core: unknown policy %q", name)
}

func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "LRU"
	case POP:
		return "POP"
	case PIN:
		return "PIN"
	case PINC:
		return "PINC"
	case HD:
		return "HD"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// SelectVictims returns the serials of the n cached queries with the
// lowest utility under policy p, scoring their statistics rows as the
// paper's replacement strategies do. currentSerial is the serial of the
// most recent query (the invocation time point).
func SelectVictims(p PolicyKind, rows []EntryStats, currentSerial int64, n int) []int64 {
	if n <= 0 || len(rows) == 0 {
		return nil
	}
	if n > len(rows) {
		n = len(rows)
	}
	kind := p
	if kind == HD {
		if covSquared(rows) > 1 {
			kind = PIN
		} else {
			kind = PINC
		}
	}
	type scored struct {
		serial  int64
		utility float64
	}
	scores := make([]scored, 0, len(rows))
	for i := range rows {
		scores = append(scores, scored{rows[i].Serial, utility(kind, &rows[i], currentSerial)})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].utility != scores[j].utility {
			return scores[i].utility < scores[j].utility
		}
		return scores[i].serial < scores[j].serial
	})
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = scores[i].serial
	}
	return out
}

// utility computes the policy's utility value for one cached entry.
func utility(kind PolicyKind, r *EntryStats, currentSerial int64) float64 {
	age := float64(currentSerial - r.Serial)
	if age < 1 {
		age = 1
	}
	switch kind {
	case LRU:
		return float64(r.LastHit)
	case POP:
		return float64(r.Hits) / age
	case PIN:
		return float64(r.CSReduction) / age
	case PINC:
		return r.TimeSaving / age
	}
	return 0
}

// covSquared computes the squared coefficient of variation of the cached
// entries' R values: sample variance over squared mean, the high-
// variability test HD applies (§6.3; CoV = 1 is the exponential-
// distribution boundary). Degenerate distributions (zero mean, single
// entry) count as low variability.
func covSquared(rows []EntryStats) float64 {
	if len(rows) < 2 {
		return 0
	}
	var sum float64
	for i := range rows {
		sum += float64(rows[i].CSReduction)
	}
	mean := sum / float64(len(rows))
	if mean == 0 {
		return 0
	}
	var ss float64
	for i := range rows {
		d := float64(rows[i].CSReduction) - mean
		ss += d * d
	}
	variance := ss / float64(len(rows)-1) // sample variance, as in the paper's example
	return variance / (mean * mean)
}

package table

import (
	"slices"
	"sync"

	"pref/internal/value"
)

// Recoverability of lost partitions.
//
// Under PREF the redundancy that keeps joins local — duplicate copies of
// referencing tuples, and replicas of REPLICATED tables — is also the
// recovery source: a partition lost with its node can be served from
// identical copies on surviving nodes. Whether it can is a property of the
// placement, so Unrecoverable answers it from the version's metadata and
// touches row content only where the placement leaves it open:
//
//   - a REPLICATED table can be served while any other replica serves;
//   - a version with no dup bit set stores every tuple once (HASH, RANGE,
//     ROUND_ROBIN, redundancy-free PREF chains), so a non-empty lost
//     partition has nothing to recover from;
//   - a PREF table with live duplicates needs a content check. It runs
//     once per version and down set (survivors) and is cached on the
//     version, so it dies with the epoch it describes and can never be
//     consulted for another table, epoch or database.
//
// Query-time recovery (engine) and the background rebuild (cluster) both
// call it.

// Unrecoverable reports how many stored rows of partition p have no
// identical copy on a partition whose node serves (down[q] false; nodes
// past the end of down serve). 0 means p can be served from survivors.
// Safe for concurrent use on a published version.
func (v *Version) Unrecoverable(p int, down []bool) int {
	n := v.Parts[p].Len()
	switch {
	case n == 0:
		return 0
	case v.Replicated:
		for q := range v.Parts {
			if q != p && !isDown(down, q) {
				return 0
			}
		}
		return n
	case !v.hasDups():
		return n
	}
	return v.survivors(down).missing[p]
}

func (v *Version) hasDups() bool {
	for _, part := range v.Parts {
		if part.Dup.Count() > 0 {
			return true
		}
	}
	return false
}

func isDown(down []bool, q int) bool { return q < len(down) && down[q] }

// DownKey renders a down set as a cache key.
func DownKey(down []bool) string {
	b := make([]byte, len(down))
	for i, d := range down {
		b[i] = '0'
		if d {
			b[i] = '1'
		}
	}
	return string(b)
}

// survivorCheck is the content check for one down set: missing[p] counts
// the rows of down partition p without a surviving identical copy.
type survivorCheck struct {
	once    sync.Once
	missing []int
}

// survivors returns the version's content check for the down set,
// building it once: concurrent first callers wait for the one build.
func (v *Version) survivors(down []bool) *survivorCheck {
	key := DownKey(down)
	v.recovMu.Lock()
	sc := v.recov[key]
	if sc == nil {
		if v.recov == nil {
			v.recov = make(map[string]*survivorCheck)
		}
		sc = &survivorCheck{}
		v.recov[key] = sc
	}
	v.recovMu.Unlock()
	sc.once.Do(func() { sc.missing = missingCopies(v.Parts, down) })
	return sc
}

// missingCopies indexes the rows of the down partitions by a 64-bit
// content hash, then sweeps the surviving partitions once, marking every
// indexed row that a survivor holds verbatim (each hash hit is confirmed
// on the full row). It returns the unmarked count per partition.
func missingCopies(parts []*Partition, down []bool) []int {
	var cols []int
	hash := func(r value.Tuple) uint64 {
		for len(cols) < len(r) {
			cols = append(cols, len(cols))
		}
		return value.HashTuple(r, cols[:len(r)])
	}
	// lost holds every down row, idx its positions by hash.
	var lost []value.Tuple
	var owner []int
	idx := make(map[uint64][]int)
	for p, part := range parts {
		if !isDown(down, p) {
			continue
		}
		for _, r := range part.Rows {
			h := hash(r)
			idx[h] = append(idx[h], len(lost))
			lost = append(lost, r)
			owner = append(owner, p)
		}
	}
	found := make([]bool, len(lost))
	for q, part := range parts {
		if isDown(down, q) {
			continue
		}
		for _, r := range part.Rows {
			for _, i := range idx[hash(r)] {
				if !found[i] && slices.Equal(lost[i], r) {
					found[i] = true
				}
			}
		}
	}
	missing := make([]int, len(parts))
	for i, f := range found {
		if !f {
			missing[owner[i]]++
		}
	}
	return missing
}

package table

import (
	"sync"
	"testing"

	"pref/internal/value"
)

// prefVersion publishes a three-partition table whose rows 0..9 are held
// by partition 0 and duplicated on partition 1 when even, and whose rows
// 10..14 live only on partition 2.
func prefVersion() *Version {
	pt := NewPartitioned(nil, 3)
	for i := int64(0); i < 10; i++ {
		pt.Parts[0].Append(value.Tuple{i, i * 7}, false, true)
		if i%2 == 0 {
			pt.Parts[1].Append(value.Tuple{i, i * 7}, true, true)
		}
	}
	for i := int64(10); i < 15; i++ {
		pt.Parts[2].Append(value.Tuple{i, i * 7}, false, false)
	}
	return pt.Snapshot()
}

// TestUnrecoverableRules pins the placement rules and the content check.
func TestUnrecoverableRules(t *testing.T) {
	v := prefVersion()
	for _, tc := range []struct {
		p    int
		down []bool
		want int
	}{
		{0, []bool{true, false, false}, 5},  // odd rows have no copy
		{1, []bool{false, true, false}, 0},  // every duplicate's original survives
		{1, []bool{true, true, false}, 5},   // the originals went down too
		{2, []bool{false, false, true}, 5},  // single copies
		{2, []bool{false, false, false}, 0}, // (not down: nothing is missing)
	} {
		if got := v.Unrecoverable(tc.p, tc.down); got != tc.want {
			t.Errorf("Unrecoverable(%d, %v) = %d, want %d", tc.p, tc.down, got, tc.want)
		}
	}

	repl := NewPartitioned(nil, 3)
	repl.Replicated = true
	for p := range repl.Parts {
		repl.Parts[p].Append(value.Tuple{1}, p > 0, false)
	}
	rv := repl.Snapshot()
	if got := rv.Unrecoverable(0, []bool{true, true, false}); got != 0 {
		t.Errorf("replicated with a serving replica: %d missing, want 0", got)
	}
	if got := rv.Unrecoverable(0, []bool{true, true, true}); got != 1 {
		t.Errorf("replicated with every replica down: %d missing, want 1", got)
	}
	if len(rv.recov) != 0 {
		t.Error("replicated tables must be answered from placement alone")
	}

	hash := NewPartitioned(nil, 2)
	hash.Parts[0].Append(value.Tuple{1}, false, false)
	hash.Parts[1].Append(value.Tuple{1}, false, false)
	hv := hash.Snapshot()
	// Identical content on a survivor does not count without dup bits:
	// the placement stores every tuple once.
	if got := hv.Unrecoverable(0, []bool{true, false}); got != 1 {
		t.Errorf("dup-free version: %d missing, want 1", got)
	}
	if len(hv.recov) != 0 {
		t.Error("dup-free versions must be answered from placement alone")
	}
}

// TestUnrecoverableSingleFlight: concurrent first callers share one
// content check per down set, cached on the version; run under -race.
func TestUnrecoverableSingleFlight(t *testing.T) {
	v := prefVersion()
	down := []bool{true, false, false}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := v.Unrecoverable(0, down); got != 5 {
				t.Errorf("Unrecoverable = %d, want 5", got)
			}
		}()
	}
	wg.Wait()
	if len(v.recov) != 1 {
		t.Fatalf("%d cached checks, want 1", len(v.recov))
	}
	sc := v.recov[DownKey(down)]
	v.Unrecoverable(0, down)
	if v.recov[DownKey(down)] != sc {
		t.Fatal("a repeated call rebuilt the check")
	}
}

package table

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pref/internal/value"
)

// TestColumnsProjection pins the columnar layout: table columns in schema
// order, then dup and hasRef decoded to 0/1.
func TestColumnsProjection(t *testing.T) {
	p := NewPartition()
	p.Append(value.Tuple{1, 10}, false, true)
	p.Append(value.Tuple{2, 20}, true, false)
	p.Append(value.Tuple{3, 30}, true, true)

	c := p.Columns(2)
	if c.NRows != 3 || len(c.Cols) != 4 {
		t.Fatalf("shape: NRows=%d cols=%d", c.NRows, len(c.Cols))
	}
	wantCols := [][]int64{{1, 2, 3}, {10, 20, 30}, {0, 1, 1}, {1, 0, 1}}
	for j, want := range wantCols {
		for i, v := range want {
			if c.Cols[j][i] != v {
				t.Fatalf("col %d row %d: got %d want %d", j, i, c.Cols[j][i], v)
			}
		}
	}
}

// TestColumnsCacheInvalidation checks the cache is reused while the
// partition is stable, rebuilt after an append, and not shared by clones.
func TestColumnsCacheInvalidation(t *testing.T) {
	p := NewPartition()
	p.Append(value.Tuple{1}, false, false)
	c1 := p.Columns(1)
	if p.Columns(1) != c1 {
		t.Fatal("stable partition rebuilt its projection")
	}

	clone := p.Clone()
	clone.Append(value.Tuple{2}, false, false)
	cc := clone.Columns(1)
	if cc == c1 || cc.NRows != 2 {
		t.Fatalf("clone projection wrong: same=%v NRows=%d", cc == c1, cc.NRows)
	}
	if got := p.Columns(1); got != c1 || got.NRows != 1 {
		t.Fatal("original projection disturbed by clone append")
	}

	p.Append(value.Tuple{3}, true, false)
	c2 := p.Columns(1)
	if c2 == c1 || c2.NRows != 2 || c2.Cols[0][1] != 3 || c2.Cols[1][1] != 1 {
		t.Fatal("append did not invalidate the projection")
	}

	// Width change also rebuilds (defense in depth for schema drift).
	if w := p.Columns(2); len(w.Cols) != 4 {
		t.Fatalf("width rebuild: %d cols", len(w.Cols))
	}
}

// TestColumnsConcurrent hammers first-build from many goroutines; -race
// validates the atomic publication.
func TestColumnsConcurrent(t *testing.T) {
	p := NewPartition()
	for i := 0; i < 5000; i++ {
		p.Append(value.Tuple{int64(i), int64(i * 2)}, i%3 == 0, i%2 == 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.Columns(2)
			for i := 0; i < 5000; i++ {
				if c.Cols[0][i] != int64(i) {
					t.Errorf("row %d corrupted", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// grow returns a copy-on-write clone of p with k rows appended, the way
// the write path derives the next version of a partition.
func grow(p *Partition, k int) *Partition { return growWith(p, k, 0) }

// growWith is grow with the appended rows' second column offset by salt,
// so sibling clones can append different rows.
func growWith(p *Partition, k int, salt int64) *Partition {
	c := p.Clone()
	base := int64(c.Len())
	for i := int64(0); i < int64(k); i++ {
		c.Append(value.Tuple{base + i, (base+i)*3 + salt}, (base+i)%4 == 0, (base+i)%3 == 0)
	}
	return c
}

// extendable returns a partition of n rows whose projection has spare
// capacity: its parent was read, so reading it extended the parent's
// projection into a reallocated array with headroom.
func extendable(n int) (*Partition, *Columnar) {
	parent := grow(NewPartition(), n-10)
	parent.Columns(2)
	p := grow(parent, 10)
	return p, p.Columns(2)
}

// sharesBacking reports whether two projections lie over one array.
func sharesBacking(a, b *Columnar) bool {
	return len(a.flat) > 0 && len(b.flat) > 0 && &a.flat[0] == &b.flat[0]
}

// assertFullBuild checks c column by column against a fresh transpose.
func assertFullBuild(t *testing.T, p *Partition, c *Columnar) {
	t.Helper()
	want := p.build(len(c.Cols) - 2)
	if c.NRows != want.NRows {
		t.Fatalf("NRows = %d, want %d", c.NRows, want.NRows)
	}
	for j := range want.Cols {
		if !slices.Equal(c.Cols[j], want.Cols[j]) {
			t.Fatalf("column %d differs from a full build", j)
		}
		if cap(c.Cols[j]) != c.NRows {
			t.Fatalf("column %d exposes capacity %d past its %d rows", j, cap(c.Cols[j]), c.NRows)
		}
	}
}

// TestCloneHeadroom: the writer appends to a fresh clone without the row
// slice reallocating.
func TestCloneHeadroom(t *testing.T) {
	p := grow(NewPartition(), 1000)
	c := p.Clone()
	first := &c.Rows[0]
	c.Append(value.Tuple{1000, 3000}, false, false)
	if &c.Rows[0] != first {
		t.Fatal("first append after Clone reallocated the row slice")
	}
	if len(p.Rows) != 1000 {
		t.Fatal("clone append reached the original")
	}
}

// TestColumnsExtensionMatchesFullBuild walks a chain of versions, some
// read and some not, with appends, in-place updates and wholesale
// replacement: every projection must equal a fresh full build.
func TestColumnsExtensionMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := grow(NewPartition(), 300)
	p.Columns(2)
	for v := 0; v < 200; v++ {
		c := grow(p, rng.Intn(40))
		switch r := rng.Intn(10); {
		case r == 0 && c.Len() > 0:
			i := rng.Intn(c.Len())
			c.SetRow(i, value.Tuple{-1, int64(v)})
		case r == 1:
			np := NewPartition()
			for i, row := range c.Rows[:c.Len()/2] {
				np.Append(row, c.Dup.Get(i), c.HasRef.Get(i))
			}
			c.ReplaceContents(np)
		}
		if rng.Intn(3) > 0 {
			assertFullBuild(t, c, c.Columns(2))
		}
		p = c
	}
}

// TestColumnsExtensionAcrossUnreadVersions: a version nobody read passes
// its ancestor on, so the next reader extends it instead of transposing.
func TestColumnsExtensionAcrossUnreadVersions(t *testing.T) {
	v1, a := extendable(110)
	v2 := grow(v1, 5) // never read
	v3 := grow(v2, 5)
	c := v3.Columns(2)
	assertFullBuild(t, v3, c)
	if !sharesBacking(a, c) {
		t.Fatal("v3 did not extend v1's projection through unread v2")
	}
	if v4 := v3.Clone(); v4.Columns(2) != c {
		t.Fatal("a clone with nothing appended must share its parent's projection")
	}
}

// TestColumnsSecondClaimantAndPrefixSetFullBuild: only one clone may fill
// an ancestor's spare capacity; a second clone of the same parent with
// other rows, and a clone whose update lies inside the ancestor's rows,
// build in full.
func TestColumnsSecondClaimantAndPrefixSetFullBuild(t *testing.T) {
	v1, a := extendable(110)
	if a.stride <= a.NRows {
		t.Fatal("precondition: an extension must reallocate with headroom")
	}
	first, second := growWith(v1, 3, 0), growWith(v1, 4, 1)
	cf, cs := first.Columns(2), second.Columns(2)
	assertFullBuild(t, first, cf)
	assertFullBuild(t, second, cs)
	if !sharesBacking(a, cf) {
		t.Fatal("first claimant did not extend in place")
	}
	if sharesBacking(a, cs) || cs.stride != cs.NRows {
		t.Fatal("second claimant must fall back to an exact-size full build")
	}

	updated := grow(v1, 3)
	updated.SetRow(5, value.Tuple{-5, -5})
	cu := updated.Columns(2)
	assertFullBuild(t, updated, cu)
	if sharesBacking(a, cu) || cu.stride != cu.NRows {
		t.Fatal("an update inside the ancestor's rows must force a full build")
	}

	// An update past the ancestor's rows leaves its prefix intact.
	v2, b := extendable(110)
	tail := grow(v2, 3)
	tail.SetRow(v2.Len()+1, value.Tuple{-7, -7})
	ct := tail.Columns(2)
	assertFullBuild(t, tail, ct)
	if !sharesBacking(b, ct) {
		t.Fatal("an update past the ancestor's rows must still extend")
	}
}

// TestColumnsExtensionFollowsClaimant: a clone taken before its parent was
// read inherits the grandparent's projection; once the parent's extension
// has claimed that, the clone extends the parent's extension instead.
func TestColumnsExtensionFollowsClaimant(t *testing.T) {
	v1, a := extendable(110)
	v2 := grow(v1, 3)
	v3 := grow(v2, 2) // cloned before v2 was read: inherits a
	c2, c3 := v2.Columns(2), v3.Columns(2)
	assertFullBuild(t, v2, c2)
	assertFullBuild(t, v3, c3)
	if !sharesBacking(a, c2) || !sharesBacking(a, c3) {
		t.Fatal("v3 did not follow v2's claim of the shared ancestor")
	}
	// A sibling of v2 with other rows finds v2's rows in the way.
	other := growWith(v1, 5, 1)
	if co := other.Columns(2); sharesBacking(a, co) {
		t.Fatal("a clone with other rows extended over v2's claim")
	}
}

// TestColumnsExtensionKeepsAncestorReaders: readers of an ancestor
// projection see the same values while clones extend it into its spare
// capacity and further clones extend those; run under -race.
func TestColumnsExtensionKeepsAncestorReaders(t *testing.T) {
	v, a := extendable(2000)
	want := make([][]int64, len(a.Cols))
	for j, col := range a.Cols {
		want[j] = slices.Clone(col)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j, col := range a.Cols {
					if !slices.Equal(col, want[j]) {
						t.Errorf("ancestor column %d changed under a reader", j)
						return
					}
				}
			}
		}()
	}
	var extenders sync.WaitGroup
	for g := 0; g < 4; g++ {
		extenders.Add(1)
		go func() {
			defer extenders.Done()
			p := v
			for i := 0; i < 20; i++ {
				p = grow(p, 7)
				assertFullBuild(t, p, p.Columns(2))
			}
		}()
	}
	extenders.Wait()
	close(stop)
	wg.Wait()
}

// TestColumnsConcurrentExtension: concurrent first readers of one clone
// race to extend its ancestor; they all get the one stored projection.
func TestColumnsConcurrentExtension(t *testing.T) {
	v, _ := extendable(500)
	c := grow(v, 20)
	got := make([]*Columnar, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.Columns(2)
		}()
	}
	wg.Wait()
	for _, x := range got {
		if x != got[0] {
			t.Fatal("concurrent readers got different projections")
		}
	}
	assertFullBuild(t, c, got[0])
}

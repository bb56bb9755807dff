package table

import "sync/atomic"

// Columnar is the cached column-major projection of one partition: one
// int64 vector per table column, followed by the dup and hasRef bitmap
// indexes decoded to 0/1 vectors. The vectorized scan hands these vectors
// to the engine as zero-copy batch views, so building the projection once
// per published partition amortizes the row→column transpose across every
// query that reads the epoch.
//
// A copy-on-write clone that only appended rows does not transpose again:
// Columns extends the projection it inherited (see extend). Each column j
// lives at flat[j*stride:][:NRows]; rows in [NRows, stride) are spare
// capacity that exactly one extension may claim and fill.
type Columnar struct {
	// Cols holds width+2 vectors of equal length: the table columns in
	// schema order, then dup, then hasRef. Immutable after construction,
	// and capped at NRows so no append through them reaches the spare
	// capacity.
	Cols [][]int64
	// NRows is the partition row count the projection was built from.
	NRows int

	flat    []int64
	stride  int
	claimed atomic.Bool
	// next is the extension that claimed the spare capacity.
	next atomic.Pointer[Columnar]
}

// newColumnar lays out width+2 columns of n rows over flat with the given
// column stride (stride ≥ n).
func newColumnar(flat []int64, width, n, stride int) *Columnar {
	c := &Columnar{Cols: make([][]int64, width+2), NRows: n, flat: flat, stride: stride}
	for j := range c.Cols {
		off := j * stride
		c.Cols[j] = flat[off : off+n : off+n]
	}
	return c
}

// ReplaceContents overwrites p's rows and bitmap indexes with np's and
// drops any cached or inherited columnar projection. The write path uses
// it instead of copying the struct, which would copy the projection cache
// (and its atomics) onto content it was not built from.
func (p *Partition) ReplaceContents(np *Partition) {
	p.Rows = np.Rows
	p.Dup = np.Dup
	p.HasRef = np.HasRef
	p.anc, p.ancPrefix = nil, 0
	p.cols.Store(nil)
}

// Columns returns the partition's columnar projection for a table of the
// given width, building and caching it on first use.
//
// Safe for concurrent readers on frozen partitions — the only partitions a
// query can reach through a DBSnapshot, since the write path clones shared
// partitions (BeginWrite) before mutating. Concurrent first calls may
// build duplicate projections; the first store wins and the others return
// it, so no mutex is needed. As defense in depth, a cached projection
// whose shape no longer matches the partition is rebuilt rather than
// returned.
func (p *Partition) Columns(width int) *Columnar {
	cur := p.cols.Load()
	if cur.fits(len(p.Rows), width) {
		return cur
	}
	c := p.extend(width)
	if c == nil {
		c = p.build(width)
	}
	if !p.cols.CompareAndSwap(cur, c) {
		if won := p.cols.Load(); won.fits(len(p.Rows), width) {
			return won
		}
	}
	return c
}

func (c *Columnar) fits(n, width int) bool {
	return c != nil && c.NRows == n && len(c.Cols) == width+2
}

// build transposes the whole partition into an exact-size projection.
func (p *Partition) build(width int) *Columnar {
	n := len(p.Rows)
	// One backing array for the whole projection keeps it contiguous and
	// halves allocator metadata for wide tables.
	c := newColumnar(make([]int64, n*(width+2)), width, n, n)
	p.transpose(c, 0)
	return c
}

// extend derives the projection from the inherited ancestor when every row
// it covers is unchanged, transposing only the rows appended since:
//
//   - nothing appended: the ancestor itself is the projection;
//   - the ancestor's spare capacity holds the new rows: the first clone to
//     claim it writes them there, past the ancestor's NRows, where none of
//     the ancestor's readers look;
//   - no room: a fresh array with headroom, the ancestor's columns copied
//     over.
//
// A clone taken before its parent was first read inherits the
// grandparent's projection, whose capacity the parent's extension has
// claimed since; the parent's extension is then the ancestor, provided
// the rows it added are the clone's own. Otherwise extend returns nil,
// meaning a full build: no usable ancestor, an updated row inside the
// ancestor's rows, or spare capacity claimed by a clone with other rows.
//
// lint:publish-boundary the claim CAS only reserves the ancestor's spare
// capacity; next.Store publishes the extension after it is written.
func (p *Partition) extend(width int) *Columnar {
	a, n := p.anc, len(p.Rows)
	if a == nil || len(a.Cols) != width+2 || a.NRows > p.ancPrefix || p.ancPrefix > n {
		return nil
	}
	for {
		switch {
		case a.NRows == n:
			return a
		case a.stride < n:
			stride := n + n/8
			c := newColumnar(make([]int64, stride*(width+2)), width, n, stride)
			for j, col := range a.Cols {
				copy(c.Cols[j], col)
			}
			p.transpose(c, a.NRows)
			return c
		case a.claimed.CompareAndSwap(false, true):
			c := newColumnar(a.flat, width, n, a.stride)
			p.transpose(c, a.NRows)
			a.next.Store(c)
			return c
		}
		b := a.next.Load()
		if b == nil || b.NRows > n || !p.holds(b, a.NRows) {
			return nil
		}
		a = b
	}
}

// holds reports whether c's rows from `from` on are p's rows.
func (p *Partition) holds(c *Columnar, from int) bool {
	width := len(c.Cols) - 2
	for i := from; i < c.NRows; i++ {
		r := p.Rows[i]
		for j := 0; j < width; j++ {
			var v int64
			if j < len(r) {
				v = r[j]
			}
			if c.Cols[j][i] != v {
				return false
			}
		}
		if c.Cols[width][i] != bit(p.Dup.Get(i)) || c.Cols[width+1][i] != bit(p.HasRef.Get(i)) {
			return false
		}
	}
	return true
}

// transpose fills c's columns with p's rows from row `from` on.
func (p *Partition) transpose(c *Columnar, from int) {
	width := len(c.Cols) - 2
	for i := from; i < c.NRows; i++ {
		r := p.Rows[i]
		for j := 0; j < width && j < len(r); j++ {
			c.Cols[j][i] = r[j]
		}
		c.Cols[width][i] = bit(p.Dup.Get(i))
		c.Cols[width+1][i] = bit(p.HasRef.Get(i))
	}
}

func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

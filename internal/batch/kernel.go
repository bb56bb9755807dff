package batch

import (
	"encoding/binary"
	"math/bits"

	"pref/internal/plan"
	"pref/internal/value"
)

// Kernels: the tight inner loops of the vectorized operators. Each kernel
// takes batches in, produces selection vectors or fresh pooled batches out,
// and never writes through its input's columns.
//
// Semantics are pinned to the row engine: comparisons run on the raw
// encoded int64 payloads (even Float columns — the row engine compares bit
// patterns in filters too), NULL operands fail every comparison, and keys
// and hashes are byte-identical to value.MakeKey / value.HashTuple.

// Filter narrows b to rows satisfying p, returning a new batch sharing b's
// columns under a fresh selection vector. The common shapes — column vs
// literal comparison and conjunctions of them — run as type-specialized
// column loops; everything else falls back to the compiled row evaluator.
func Filter(b *Batch, p *plan.VPred) *Batch {
	n := b.Len()
	if n == 0 {
		return b.WithSel(nil)
	}
	sel := make([]int32, 0, n)
	sel = appendSelected(sel, b, p)
	return b.WithSel(sel)
}

// appendSelected appends the physical indexes of b's live rows that satisfy
// p. It dispatches to fused fast paths where the predicate shape allows.
func appendSelected(sel []int32, b *Batch, p *plan.VPred) []int32 {
	// Fast path 1: single column-vs-literal comparison.
	if col, op, lit, ok := colLitCmp(p); ok {
		return selCmpLit(sel, b, col, op, lit)
	}
	// Fast path 2: conjunction — narrow the selection leg by leg with a
	// column loop per column-vs-literal leg, in place after the first, then
	// run only the remaining legs, in their original order, row-at-a-time
	// over the survivors. Legs are pure and NULL comparisons are false, so
	// the conjunction's value is independent of leg order, and every
	// remaining leg sees a subset of the rows it would have seen in plan
	// order.
	if p.Op == plan.VAnd {
		start := len(sel)
		narrowed, rowLegs := false, false
		for _, k := range p.Kids {
			col, op, lit, ok := colLitCmp(k)
			switch {
			case !ok:
				rowLegs = true
			case !narrowed:
				sel = selCmpLit(sel, b, col, op, lit)
				narrowed = true
			default:
				sel = narrowSel(sel[:start], sel[start:], b.Cols[col], op, lit)
			}
		}
		if narrowed {
			if !rowLegs {
				return sel
			}
			scratch := scratchFor(p)
			row := make([]int64, b.Width())
			kept := sel[:start]
			for _, phys := range sel[start:] {
				for c, colv := range b.Cols {
					row[c] = colv[phys]
				}
				if evalRowLegs(p, row, scratch) {
					kept = append(kept, phys)
				}
			}
			return kept
		}
	}
	// General path: compiled row evaluator over the live rows.
	scratch := scratchFor(p)
	row := make([]int64, b.Width())
	n := b.Len()
	for i := 0; i < n; i++ {
		phys := i
		if b.Sel != nil {
			phys = int(b.Sel[i])
		}
		for c, colv := range b.Cols {
			row[c] = colv[phys]
		}
		if p.EvalRow(row, scratch) {
			sel = append(sel, int32(phys))
		}
	}
	return sel
}

// evalRowLegs evaluates the legs of conjunction p that are not
// column-vs-literal comparisons over one materialized row.
func evalRowLegs(p *plan.VPred, row, scratch []int64) bool {
	for _, k := range p.Kids {
		if _, _, _, ok := colLitCmp(k); !ok && !k.EvalRow(row, scratch) {
			return false
		}
	}
	return true
}

func scratchFor(p *plan.VPred) []int64 {
	if n := p.MaxFuncArgs(); n > 0 {
		return make([]int64, n)
	}
	return nil
}

// colLitCmp recognizes the `column <op> literal` shape (either operand
// order; the column side must be non-NULL-producing VCol).
func colLitCmp(p *plan.VPred) (col int, op plan.CmpOp, lit int64, ok bool) {
	if p.Op != plan.VCmp {
		return 0, 0, 0, false
	}
	if p.L.Op == plan.VCol && p.R.Op == plan.VLit {
		return p.L.Col, p.Cmp, p.R.Lit, true
	}
	if p.L.Op == plan.VLit && p.R.Op == plan.VCol {
		if flipped, can := flipCmp(p.Cmp); can {
			return p.R.Col, flipped, p.L.Lit, true
		}
	}
	return 0, 0, 0, false
}

// flipCmp rewrites `lit <op> col` as `col <op'> lit`.
func flipCmp(op plan.CmpOp) (plan.CmpOp, bool) {
	switch op {
	case plan.EQ:
		return plan.EQ, true
	case plan.NE:
		return plan.NE, true
	case plan.LT:
		return plan.GT, true
	case plan.LE:
		return plan.GE, true
	case plan.GT:
		return plan.LT, true
	case plan.GE:
		return plan.LE, true
	}
	return op, false
}

// selCmpLit is the hot filter loop: one column against one literal, one
// branch-per-operator dispatch outside the loop. A NULL literal selects
// nothing (matching the row engine: NULL comparisons are false).
func selCmpLit(sel []int32, b *Batch, col int, op plan.CmpOp, lit int64) []int32 {
	if lit == plan.Null {
		return sel
	}
	c := b.Cols[col]
	if b.Sel == nil {
		switch op {
		case plan.EQ:
			for i, v := range c {
				if v == lit {
					sel = append(sel, int32(i))
				}
			}
		case plan.NE:
			for i, v := range c {
				if v != lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.LT:
			for i, v := range c {
				if v < lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.LE:
			for i, v := range c {
				if v <= lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.GT:
			for i, v := range c {
				if v > lit {
					sel = append(sel, int32(i))
				}
			}
		case plan.GE:
			for i, v := range c {
				if v >= lit {
					sel = append(sel, int32(i))
				}
			}
		}
		return sel
	}
	return narrowSel(sel, b.Sel, c, op, lit)
}

// narrowSel appends to dst the physical rows of src whose value in column
// c passes `c <op> lit`, one specialized loop per operator, with
// NULL-fails semantics. plan.Null is math.MinInt64, so > and >= can never
// spuriously admit it once lit is known non-NULL; the other operators need
// the explicit guard. dst may share src's backing array from the same
// start (in-place narrowing): each write lands at or before the element
// being read.
func narrowSel(dst, src []int32, c []int64, op plan.CmpOp, lit int64) []int32 {
	if lit == plan.Null {
		return dst
	}
	switch op {
	case plan.EQ:
		for _, phys := range src {
			if c[phys] == lit {
				dst = append(dst, phys)
			}
		}
	case plan.NE:
		for _, phys := range src {
			if v := c[phys]; v != lit && v != plan.Null {
				dst = append(dst, phys)
			}
		}
	case plan.LT:
		for _, phys := range src {
			if v := c[phys]; v < lit && v != plan.Null {
				dst = append(dst, phys)
			}
		}
	case plan.LE:
		for _, phys := range src {
			if v := c[phys]; v <= lit && v != plan.Null {
				dst = append(dst, phys)
			}
		}
	case plan.GT:
		for _, phys := range src {
			if c[phys] > lit {
				dst = append(dst, phys)
			}
		}
	case plan.GE:
		for _, phys := range src {
			if c[phys] >= lit {
				dst = append(dst, phys)
			}
		}
	}
	return dst
}

// Project evaluates exprs over b's live rows into a fresh dense pooled
// batch. Pure column picks copy with a single gather loop per output
// column; computed expressions gather only their argument columns (a
// VFunc's arguments are always plain column indexes) into a scratch
// buffer per live row and apply the function.
func Project(b *Batch, exprs []*plan.VExpr) *Batch {
	n := b.Len()
	out := get(len(exprs))
	for c := range out.Cols {
		out.Cols[c] = grow(out.Cols[c], n)
	}
	var scratch []int64
	for c, e := range exprs {
		dst := out.Cols[c]
		switch e.Op {
		case plan.VCol:
			src := b.Cols[e.Col]
			if b.Sel == nil {
				copy(dst, src[:n])
			} else {
				for i, phys := range b.Sel {
					dst[i] = src[phys]
				}
			}
		case plan.VLit:
			for i := range dst {
				dst[i] = e.Lit
			}
		default:
			if len(scratch) < len(e.Cols) {
				scratch = make([]int64, len(e.Cols))
			}
			args := scratch[:len(e.Cols)]
			if b.Sel == nil {
				for i := range dst {
					for k, col := range e.Cols {
						args[k] = b.Cols[col][i]
					}
					dst[i] = e.Fn(args)
				}
			} else {
				for i, phys := range b.Sel {
					for k, col := range e.Cols {
						args[k] = b.Cols[col][phys]
					}
					dst[i] = e.Fn(args)
				}
			}
		}
	}
	return out
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// Int64Table is an open-addressed hash table from int64 join keys to chains
// of row ids — the single-column equi-join build side. Equal-key rows chain
// in ascending row order (Head then Next), matching the candidate order the
// row engine's append-built lists produce, so emit order is identical.
// Probes are a fibonacci-hash plus linear scan over a flat int32 slot
// array: no per-row allocation, no map overhead.
type Int64Table struct {
	keys  []int64 // the build column, borrowed from the caller
	slots []int32 // row id + 1; 0 = empty
	next  []int32 // next[i] = next row with keys[i]'s key, -1 = end
	mask  uint64
	shift uint
}

const fib64 = 0x9E3779B97F4A7C15

// BuildInt64Table indexes keys (one per build row). The slice is retained,
// not copied; the caller must keep it immutable while probing.
func BuildInt64Table(keys []int64) *Int64Table {
	n := len(keys)
	size := 8
	for size < 2*n {
		size <<= 1
	}
	log2 := 0
	for 1<<log2 < size {
		log2++
	}
	t := &Int64Table{
		keys:  keys,
		slots: make([]int32, size),
		next:  make([]int32, n),
		mask:  uint64(size - 1),
		shift: uint(64 - log2),
	}
	// Insert in reverse row order, prepending to each key's chain, so a
	// forward walk visits rows ascending.
	for i := n - 1; i >= 0; i-- {
		k := keys[i]
		h := (uint64(k) * fib64) >> t.shift
		for {
			s := t.slots[h]
			if s == 0 {
				t.next[i] = -1
				t.slots[h] = int32(i) + 1
				break
			}
			if t.keys[s-1] == k {
				t.next[i] = s - 1
				t.slots[h] = int32(i) + 1
				break
			}
			h = (h + 1) & t.mask
		}
	}
	return t
}

// Head returns the first build row with key k, if any.
func (t *Int64Table) Head(k int64) (int32, bool) {
	h := (uint64(k) * fib64) >> t.shift
	for {
		s := t.slots[h]
		if s == 0 {
			return 0, false
		}
		if t.keys[s-1] == k {
			return s - 1, true
		}
		h = (h + 1) & t.mask
	}
}

// Next returns the build row chained after i, if any.
func (t *Int64Table) Next(i int32) (int32, bool) {
	if n := t.next[i]; n >= 0 {
		return n, true
	}
	return 0, false
}

// KeyBuf is a reusable composite-key buffer for allocation-free map probes:
// EncodeKey fills it, and m[value.Key(kb.buf)] probes without interning the
// string (the Go compiler elides the conversion's copy for map index
// expressions).
type KeyBuf struct {
	buf []byte
}

// NewKeyBuf sizes a key buffer for nCols key columns.
func NewKeyBuf(nCols int) *KeyBuf { return &KeyBuf{buf: make([]byte, 8*nCols)} }

// Encode fills the buffer with the composite key of live row i of b over
// cols, byte-identical to value.MakeKey on the materialized row.
func (kb *KeyBuf) Encode(b *Batch, i int, cols []int) {
	phys := i
	if b.Sel != nil {
		phys = int(b.Sel[i])
	}
	for j, c := range cols {
		binary.LittleEndian.PutUint64(kb.buf[j*8:], uint64(b.Cols[c][phys]))
	}
}

// Probe indexes m with the current buffer contents without allocating.
func (kb *KeyBuf) Probe(m map[value.Key][]int32) ([]int32, bool) {
	v, ok := m[value.Key(kb.buf)]
	return v, ok
}

// Key interns the current buffer contents as an owned value.Key (allocates;
// use for map insertion).
func (kb *KeyBuf) Key() value.Key { return value.Key(string(kb.buf)) }

// Groups is the insert-or-find table of a hash aggregation: it maps each
// live row's composite group key to a dense int32 group id, assigned in
// first-seen order, and keeps every group's key values. Key equality is
// int64 equality on every key column — the relation value.MakeKey's byte
// encoding induces — so groups match the row engine's. Rows hash a column
// at a time into a per-batch buffer, then probe an open-addressed slot
// array and compare against the stored keys directly: neither step
// allocates, and keys live in one amortized growing array rather than one
// key string per group. With no key columns (a global aggregation) every
// row belongs to group 0 and nothing is hashed.
type Groups struct {
	cols   []int
	keys   []int64   // row-major: group g's key is keys[g*len(cols):][:len(cols)]
	hashes []uint64  // hashes[g]: group g's key hash, kept for rehashing
	slots  []int32   // group id + 1; 0 = empty
	shift  uint      // 64 - log2(len(slots)): a hash's home slot is h >> shift
	hbuf   []uint64  // per-batch row hashes
	kcols  [][]int64 // the current batch's key column vectors
	n      int
}

// NewGroups opens an empty group table over the given key columns.
func NewGroups(cols []int) *Groups {
	g := &Groups{cols: cols}
	if len(cols) > 0 {
		// Start roomy: a low-cardinality key (the common GROUP BY on flag
		// columns) then probes without collisions.
		g.rehash(256)
	}
	return g
}

// rehash rebuilds the slot array at the given power-of-two size.
func (g *Groups) rehash(size int) {
	g.slots = make([]int32, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id, h := range g.hashes {
		s := h >> g.shift
		for g.slots[s] != 0 {
			s = (s + 1) & mask
		}
		g.slots[s] = int32(id) + 1
	}
}

// Assign appends the group id of every live row of b to gid, in live-row
// order, inserting unseen keys as new groups, and returns the extended
// slice.
func (g *Groups) Assign(gid []int32, b *Batch) []int32 {
	n := b.Len()
	if len(g.cols) == 0 {
		if n > 0 {
			g.n = 1
		}
		for i := 0; i < n; i++ {
			gid = append(gid, 0)
		}
		return gid
	}
	if cap(g.hbuf) < n {
		g.hbuf = make([]uint64, n)
	}
	h := g.hbuf[:n]
	for k := range h {
		h[k] = fib64
	}
	g.kcols = g.kcols[:0]
	for _, c := range g.cols {
		col := b.Cols[c]
		g.kcols = append(g.kcols, col)
		if b.Sel == nil {
			col = col[:n]
			for k, v := range col {
				h[k] = (h[k] ^ uint64(v)) * fib64
			}
		} else {
			for k, phys := range b.Sel {
				h[k] = (h[k] ^ uint64(col[phys])) * fib64
			}
		}
	}
	// A one-column key's hash, (fib64 ^ v) · fib64 mod 2^64, is a bijection
	// (xor with a constant, then multiplication by an odd constant), so
	// equal hashes already mean equal keys.
	exact := len(g.cols) == 1
	for k, hk := range h {
		phys := k
		if b.Sel != nil {
			phys = int(b.Sel[k])
		}
		mask := uint64(len(g.slots) - 1)
		s := hk >> g.shift
		for {
			e := g.slots[s]
			if e == 0 {
				gid = append(gid, g.insert(s, hk, phys))
				break
			}
			if id := e - 1; g.hashes[id] == hk && (exact || g.equal(id, phys)) {
				gid = append(gid, id)
				break
			}
			s = (s + 1) & mask
		}
	}
	return gid
}

// equal reports whether group id's key equals physical row phys of the
// current batch.
func (g *Groups) equal(id int32, phys int) bool {
	key := g.keys[int(id)*len(g.kcols):][:len(g.kcols)]
	for j, v := range key {
		if v != g.kcols[j][phys] {
			return false
		}
	}
	return true
}

// insert adds physical row phys of the current batch as a new group in
// empty slot s, growing the slot array past half load.
func (g *Groups) insert(s, h uint64, phys int) int32 {
	id := int32(g.n)
	for _, col := range g.kcols {
		g.keys = append(g.keys, col[phys])
	}
	g.hashes = append(g.hashes, h)
	g.slots[s] = id + 1
	g.n++
	if 2*g.n > len(g.slots) {
		g.rehash(2 * len(g.slots))
	}
	return id
}

// Len reports the number of groups seen so far.
func (g *Groups) Len() int { return g.n }

// Key returns group id's value of key column j (the j-th of the columns
// the table was opened over).
func (g *Groups) Key(j, id int) int64 { return g.keys[id*len(g.cols)+j] }

// HashRow hashes the key columns of live row i of b, identical to
// value.HashTuple on the materialized row.
func HashRow(b *Batch, i int, cols []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	phys := i
	if b.Sel != nil {
		phys = int(b.Sel[i])
	}
	h := uint64(offset64)
	for _, c := range cols {
		v := uint64(b.Cols[c][phys])
		for s := 0; s < 64; s += 8 {
			h ^= (v >> uint(s)) & 0xff
			h *= prime64
		}
	}
	return h
}

package batch

import (
	"fmt"
	"math/rand"
	"testing"

	"pref/internal/plan"
	"pref/internal/value"
)

// Layer benchmarks for the kernels the columnar aggregation path leans on.
// Each reports allocations and ns per input row; run them with
//
//	go test -run '^$' -bench . -benchmem ./internal/batch/

// benchRows is the input size of every benchmark: 64 full batches.
const benchRows = 64 * Size

// Sinks keep the compiler from discarding benchmarked calls.
var (
	sinkGroups int
	sinkBatch  *Batch
)

// benchBatches builds a lineitem-wide (18 columns) batch list whose column
// c draws from [0, domain[c]), optionally narrowed by a ~50% selection.
func benchBatches(domain []int64, selected bool) []*Batch {
	rng := rand.New(rand.NewSource(11))
	cols := make([][]int64, len(domain))
	for c := range cols {
		cols[c] = make([]int64, benchRows)
		for i := range cols[c] {
			cols[c][i] = rng.Int63n(domain[c])
		}
	}
	bs := Chunks(cols)
	if selected {
		for i, b := range bs {
			var sel []int32
			for r := 0; r < b.Len(); r++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(r))
				}
			}
			bs[i] = b.WithSel(sel)
		}
	}
	return bs
}

// wideDomain is an 18-column domain: two low-cardinality flag columns
// (returnflag/linestatus-like), a high-cardinality key, and values.
func wideDomain() []int64 {
	d := make([]int64, 18)
	for c := range d {
		d[c] = 100
	}
	d[0], d[1], d[2] = 3, 2, benchRows/4
	return d
}

func perRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkGrouping compares the row engine's grouping (a value.MakeKey
// string per row into a map) with Groups' insert-or-find over batches, for
// a two-column low-cardinality key (TPC-H Q1's shape) and a one-column key
// with benchRows/4 distinct values (Q3/Q18's orderkey shape).
func BenchmarkGrouping(b *testing.B) {
	bs := benchBatches(wideDomain(), false)
	rows := AppendRows(nil, bs)
	for _, k := range []struct {
		name string
		cols []int
	}{{"low_card_2col", []int{0, 1}}, {"high_card_1col", []int{2}}} {
		b.Run("row/"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				groups := map[value.Key]int32{}
				for _, r := range rows {
					key := value.MakeKey(r, k.cols)
					if _, ok := groups[key]; !ok {
						groups[key] = int32(len(groups))
					}
				}
				sinkGroups = len(groups)
			}
			perRow(b, len(rows))
		})
		b.Run("columnar/"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			gid := make([]int32, 0, Size)
			for n := 0; n < b.N; n++ {
				g := NewGroups(k.cols)
				for _, bt := range bs {
					gid = g.Assign(gid[:0], bt)
				}
				sinkGroups = g.Len()
			}
			perRow(b, len(rows))
		})
	}
}

// BenchmarkFilterConjunction runs a TPC-H Q6-shaped conjunction (five
// column-vs-literal legs over three columns — a date range, a discount
// range, a quantity bound — ~0.3% selective) and the same conjunction with
// a trailing function leg, on dense and selected input.
func BenchmarkFilterConjunction(b *testing.B) {
	sch := make(plan.Schema, 18)
	for c := range sch {
		sch[c] = plan.Field{Name: fmt.Sprintf("c%d", c), Kind: value.Int}
	}
	legs := []plan.BoolExpr{
		plan.Ge(plan.Col("c10"), plan.Lit(20)),
		plan.Lt(plan.Col("c10"), plan.Lit(40)),
		plan.Ge(plan.Col("c6"), plan.Lit(5)),
		plan.Le(plan.Col("c6"), plan.Lit(7)),
		plan.Lt(plan.Col("c4"), plan.Lit(50)),
	}
	fn := plan.Gt(plan.F("rev", value.Int, []string{"c5", "c6"},
		func(v []int64) int64 { return v[0] * (100 - v[1]) }), plan.Lit(100))
	for _, p := range []struct {
		name string
		pred plan.BoolExpr
	}{{"lit_legs", plan.And(legs...)}, {"lit_legs_func", plan.And(append(legs, fn)...)}} {
		vp, err := plan.CompilePred(p.pred, sch)
		if err != nil {
			b.Fatal(err)
		}
		for _, selected := range []bool{false, true} {
			bs := benchBatches(wideDomain(), selected)
			live := Rows(bs)
			b.Run(fmt.Sprintf("%s/selected=%v", p.name, selected), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					for _, bt := range bs {
						sinkBatch = Filter(bt, vp)
					}
				}
				perRow(b, live)
			})
		}
	}
}

// BenchmarkProjectFunc evaluates a three-argument function (TPC-H's
// charge) over an 18-column input, dense and selected — the kernel gathers
// only the three argument columns per row.
func BenchmarkProjectFunc(b *testing.B) {
	sch := make(plan.Schema, 18)
	for c := range sch {
		sch[c] = plan.Field{Name: fmt.Sprintf("c%d", c), Kind: value.Int}
	}
	charge := plan.F("charge", value.Int, []string{"c5", "c6", "c7"},
		func(v []int64) int64 { return v[0] * (100 - v[1]) / 100 * (100 + v[2]) / 100 })
	ve, err := plan.CompileExpr(charge, sch)
	if err != nil {
		b.Fatal(err)
	}
	exprs := []*plan.VExpr{ve}
	for _, selected := range []bool{false, true} {
		bs := benchBatches(wideDomain(), selected)
		live := Rows(bs)
		b.Run(fmt.Sprintf("selected=%v", selected), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, bt := range bs {
					sinkBatch = Project(bt, exprs)
					sinkBatch.Release()
				}
			}
			perRow(b, live)
		})
	}
}

package bench

import (
	"testing"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// TestVecAggAllocGate pins the columnar aggregation's allocation budget on
// the variant the serving benchmarks run: on AllReplicated (TPC-H SF 0.01,
// 10 partitions) every node aggregates its own full copy, so a per-row
// allocation in grouping or in the row shim multiplies by every stored
// row. Vectorized Q1 and Q3 must allocate at most 1/20 of what the row
// engine allocates per query.
func TestVecAggAllocGate(t *testing.T) {
	d := tpch.Generate(0.01, 7)
	v := singleGroup("AllReplicated", allReplicated(d.DB, 10))
	m, err := Materialize(v, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Q1", "Q3"} {
		rw, err := plan.Rewrite(d.Query(q), d.DB.Schema, v.Groups[0].Config, plan.Options{})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", q, err)
		}
		allocs := func(rowEngine bool) float64 {
			var qerr error
			n := testing.AllocsPerRun(2, func() {
				if _, err := engine.ExecuteOpts(rw, m.PDBs[0], engine.ExecOptions{RowEngine: rowEngine}); err != nil {
					qerr = err
				}
			})
			if qerr != nil {
				t.Fatalf("%s (row engine %v): %v", q, rowEngine, qerr)
			}
			return n
		}
		row, vec := allocs(true), allocs(false)
		t.Logf("%s: %.0f allocs/query vectorized, %.0f row engine", q, vec, row)
		if vec*20 > row {
			t.Errorf("%s: vectorized allocates %.0f per query, more than 1/20 of the row engine's %.0f", q, vec, row)
		}
	}
}

package bench

import (
	"fmt"
	"runtime"
	"time"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// VecThroughput benchmarks the vectorized columnar engine against the
// row-at-a-time reference engine on the execution shapes the tentpole
// targets, at 10× the session's default TPC-H scale (p.SF × 10):
//
//   - storage_scan: a selective filter over the LINEITEM storage scan —
//     the shape where the columnar path reads the partition's cached
//     column vectors zero-copy and runs a specialized column-vs-literal
//     loop instead of a per-row predicate closure.
//   - scan_agg_q1: full TPC-H Q1 (scan + ~98%-selective filter + wide
//     grouped aggregate). The columnar path folds the filtered batches
//     straight into per-group accumulators; the row engine materializes
//     every surviving row and groups through string keys.
//   - pref_chain_join: CUSTOMER ⋈ ORDERS ⋈ LINEITEM down the PREF chain
//     of the paper's SD configuration — all joins partition-local, so
//     the measured work is pure hash-join CPU: no-alloc key probes and
//     pooled batch emit against per-row key strings and per-row allocs.
//   - repl_q1, repl_q6: TPC-H Q1 and Q6 on AllReplicated at the run's
//     own scale (p.SF) — the variant the serving benchmarks run, where
//     aggregation is node-local and per-node CPU is the whole cost.
//
// Both engines execute identical plans over identical data and must
// return identical Stats (the experiment fails otherwise — it doubles as
// a coarse differential check). Throughput is Stats.RowsProcessed over
// the best wall time of three runs, so the speedup column is a pure
// wall-clock ratio on equal work.
func VecThroughput(p Params) (*Report, error) {
	sp := p
	sp.SF = p.SF * 10
	t := tpch.Generate(sp.SF, sp.Seed)
	sd := singleGroup("SD-paper", PaperSDConfig(sp.Parts))
	m, err := Materialize(sd, t.DB)
	if err != nil {
		return nil, err
	}
	eopt := sp.execOptions(t.DB.TotalRows())
	// Every node of AllReplicated stores the whole database, so its rows
	// run at p.SF itself: 10x would hold ten full copies.
	tr := tpch.Generate(p.SF, p.Seed)
	repl := singleGroup("AllReplicated", allReplicated(tr.DB, p.Parts))
	mr, err := Materialize(repl, tr.DB)
	if err != nil {
		return nil, err
	}
	ropt := p.execOptions(tr.DB.TotalRows())

	scan := func() plan.Node {
		// SELECT orderkey, quantity, extendedprice WHERE quantity <= 2:
		// a selective scan feeding the columns a consumer would read.
		// (SELECT * would measure the Result-boundary row shim gathering
		// every stored column, not the scan path.)
		f := plan.Filter(plan.Scan("lineitem", "l"),
			plan.Le(plan.Col("l.quantity"), plan.Lit(2)))
		return plan.ProjectCols(f, "l.orderkey", "l.quantity", "l.extendedprice")
	}
	q1 := func() plan.Node { return t.Query("Q1") }
	chain := func() plan.Node {
		co := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.Inner, []string{"c.custkey"}, []string{"o.custkey"})
		j := plan.Join(co, plan.Scan("lineitem", "l"),
			plan.Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
		// Narrow the result like a real chain query would: the join CPU
		// (build, probe, emit) dominates the wall instead of the shim
		// materializing 30+ columns per matched row on both engines.
		return plan.ProjectCols(j, "c.custkey", "o.orderdate", "l.extendedprice")
	}
	type setup struct {
		t    *tpch.TPCH
		v    *Variant
		m    *Materialized
		eopt engine.ExecOptions
	}
	onSD := setup{t, sd, m, eopt}
	onRepl := setup{tr, repl, mr, ropt}
	cases := []struct {
		name string
		on   setup
		mk   func() plan.Node
	}{
		{"storage_scan", onSD, scan},
		{"scan_agg_q1", onSD, q1},
		{"pref_chain_join", onSD, chain},
		{"repl_q1", onRepl, func() plan.Node { return tr.Query("Q1") }},
		{"repl_q6", onRepl, func() plan.Node { return tr.Query("Q6") }},
	}

	const iters = 5
	one := func(on setup, mk func() plan.Node, rowEngine bool) (time.Duration, engine.Stats, error) {
		// Level the heap, then run once untimed: the GC purges the batch
		// arena (sync.Pool), so the warmup restores each engine's steady
		// state — warm pool, warm column caches — before the clock starts.
		runtime.GC()
		e := on.eopt
		e.RowEngine = rowEngine
		if _, err := execOn(mk(), on.t, on.v, on.m, plan.Options{}, sp.Cost, e); err != nil {
			return 0, engine.Stats{}, err
		}
		run, err := execOn(mk(), on.t, on.v, on.m, plan.Options{}, sp.Cost, e)
		if err != nil {
			return 0, engine.Stats{}, err
		}
		return run.Wall, run.Stats, nil
	}

	r := &Report{ID: "vec", Title: "Vectorized vs row engine throughput (SD-paper at 10x scale, AllReplicated at 1x)",
		Columns: []string{"row_krows_s", "vec_krows_s", "speedup"}}
	for _, c := range cases {
		// Interleave the engines round by round and keep each one's best
		// wall, so machine-load drift lands on both sides of the ratio.
		var rowWall, vecWall time.Duration
		var rowStats, vecStats engine.Stats
		for i := 0; i < iters; i++ {
			rw, rs, err := one(c.on, c.mk, true)
			if err != nil {
				return nil, fmt.Errorf("%s (row engine): %w", c.name, err)
			}
			vw, vs, err := one(c.on, c.mk, false)
			if err != nil {
				return nil, fmt.Errorf("%s (vectorized): %w", c.name, err)
			}
			if i == 0 || rw < rowWall {
				rowWall = rw
			}
			if i == 0 || vw < vecWall {
				vecWall = vw
			}
			rowStats, vecStats = rs, vs
		}
		if rowStats != vecStats {
			return nil, fmt.Errorf("%s: engines diverge on Stats:\nrow %+v\nvec %+v",
				c.name, rowStats, vecStats)
		}
		rows := float64(rowStats.RowsProcessed)
		rowTput := rows / rowWall.Seconds() / 1000
		vecTput := rows / vecWall.Seconds() / 1000
		r.Add(c.name, rowTput, vecTput, float64(rowWall)/float64(vecWall))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("SD-paper rows: TPC-H SF %g (10x -sf); repl_* rows: AllReplicated at SF %g; %d partitions; best of %d runs per engine", sp.SF, p.SF, sp.Parts, iters),
		"throughput = Stats.RowsProcessed / wall; Stats are engine-identical so speedup is the wall-clock ratio on equal work")
	return r, nil
}

package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pref/internal/batch"
	"pref/internal/cluster"
	"pref/internal/design"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
	"pref/internal/trace"
)

// opBuckets maps the engine's trace operator kinds onto the per-layer
// busy-time metrics.
var opBuckets = map[trace.Kind]string{
	trace.KindScan:            "scan",
	trace.KindFilter:          "filter",
	trace.KindProject:         "project",
	trace.KindJoin:            "join",
	trace.KindAggregate:       "agg",
	trace.KindPartialAgg:      "agg",
	trace.KindFinalAgg:        "agg",
	trace.KindRepartition:     "repartition",
	trace.KindBroadcast:       "broadcast",
	trace.KindGather:          "gather",
	trace.KindDistinctPref:    "distinct",
	trace.KindDistinctByValue: "distinct",
	trace.KindTopK:            "topk",
}

var opNames = []string{"scan", "filter", "project", "join", "agg", "repartition", "broadcast", "gather", "distinct", "topk"}

// probeReps is how often each query is probed directly per run.
const probeReps = 3

// allocs measures the heap allocations of fn (process-wide, so callers run
// it while no other benchmark goroutine is working).
func allocs(fn func()) (count, bytes uint64, d time.Duration) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, d
}

// probes are the direct calls into the plan and engine layers the traced
// run makes after its served windows.
type probes struct {
	rewrite       []time.Duration
	rewriteAllocs []float64
	exec          map[string][]time.Duration // trace off, by query
	execAll       []float64                  // ms, trace off
	execAllocs    []float64
	execBytes     []float64
	wallOff       time.Duration // summed ExecuteCtx wall, trace off
	wallOn        time.Duration // summed ExecuteCtx wall, trace on
	traced        int
	opBusy        map[string]time.Duration // summed over traced probes
	commitAllocs  []float64
}

// runTraced is the per-layer run: an untraced window and a traced window
// of the same load (their throughput difference is the tracing
// overhead), then direct probes of the plan, engine, batch, table and
// design layers. Spans are kept in memory and written out at the end.
func runTraced(cfg config, f *fixture, orc *oracle, wr *writer, builds []setupTimes, rec *recorder, dur time.Duration, log io.Writer) (*result, error) {
	w := f.w
	m0 := f.srv.Metrics()
	half := dur / 2
	outU := runWindow(f, orc, wr, cfg.streamSeed, 0, half, nil)
	outT := runWindow(f, orc, wr, cfg.streamSeed, 1<<20, half, rec)
	m1 := f.srv.Metrics()

	attempted := outU.attempted + outT.attempted
	failed := outU.failed + outT.failed
	firstErr := outU.firstErr
	if firstErr == nil {
		firstErr = outT.firstErr
	}

	pb, err := runProbes(f, orc, wr, rec)
	if err != nil {
		failed++
		attempted++
		if firstErr == nil {
			firstErr = err
		}
	}

	lm := map[string]metric{}
	put := func(name string, v float64, unit string) { lm[name] = metric{v, unit} }

	// Set-up layers.
	var gen, part []float64
	for _, s := range builds {
		gen = append(gen, s.generate.Seconds())
		part = append(part, s.partition.Seconds())
	}
	put("tpch.generate_s", median(gen), "s")
	put("partition.apply_s", median(part), "s")
	sd, err := probeDesign(f.t, rec)
	if err != nil {
		return nil, err
	}
	put("design.sd_s", sd.Seconds(), "s")
	put("partition.stored_rows", float64(f.storedRows), "count")

	// Serving layer.
	served := append(append([]sample(nil), outU.samples...), outT.samples...)
	var open, drain []float64
	for _, s := range outT.samples {
		open = append(open, ms(s.open))
		drain = append(drain, ms(s.drain))
	}
	put("serve.open_ms_p50", median(open), "ms")
	put("serve.drain_ms_p50", median(drain), "ms")
	var overhead []float64
	for q, ss := range byQuery(outT.samples) {
		if execs := pb.exec[q]; len(execs) > 0 {
			o := make([]float64, len(ss))
			for i, s := range ss {
				o[i] = ms(s.open)
			}
			overhead = append(overhead, median(o)-median(durationsMS(execs)))
		}
	}
	put("serve.overhead_ms_p50", median(overhead), "ms")
	hits := m1.PlanCacheHits - m0.PlanCacheHits
	lookups := hits + m1.PlanCacheMisses - m0.PlanCacheMisses
	put("serve.plan_cache_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio")
	put("serve.plan_cache_lookups", float64(lookups), "count")
	put("serve.retries", float64(m1.Retries-m0.Retries), "count")
	put("serve.rejected", float64(sumRejected(m1.Rejected)-sumRejected(m0.Rejected)), "count")

	// Plan and engine layers.
	put("plan.rewrite_us_p50", median(durationsMS(pb.rewrite))*1000, "us")
	put("plan.rewrite_allocs", median(pb.rewriteAllocs), "count")
	put("engine.exec_ms_p50", median(pb.execAll), "ms")
	put("engine.allocs_per_query", mean(pb.execAllocs), "count")
	put("engine.alloc_kb_per_query", mean(pb.execBytes)/1024, "KB")
	stat := func(f func(engine.Stats) float64) float64 { return perQueryMean(served, f) }
	put("engine.rows_processed_per_query", stat(func(s engine.Stats) float64 { return float64(s.RowsProcessed) }), "count")
	put("engine.max_node_rows_per_query", stat(func(s engine.Stats) float64 { return float64(s.MaxNodeRows) }), "count")
	put("engine.rows_shipped_per_query", stat(func(s engine.Stats) float64 { return float64(s.RowsShipped) }), "count")
	put("engine.recovered_rows_per_query", stat(func(s engine.Stats) float64 { return float64(s.RecoveredRows) }), "count")
	for _, op := range opNames {
		put("engine.op."+op+"_ms", ms(pb.opBusy[op])/float64(max(pb.traced, 1)), "ms")
	}

	// Tracing overhead: engine trace on/off, and the benchmark's own
	// spans as the throughput difference of the two windows.
	qpsU := float64(len(outU.samples)) / outU.elapsed.Seconds()
	qpsT := float64(len(outT.samples)) / outT.elapsed.Seconds()
	put("trace.overhead_ratio", ratio(pb.wallOn.Seconds(), pb.wallOff.Seconds()), "ratio")
	put("trace.qps_untraced", qpsU, "1/s")
	put("trace.qps_traced", qpsT, "1/s")
	put("trace.throughput_delta_qps", qpsU-qpsT, "1/s")

	// Kernels and storage.
	kp, err := probeKernels(f, rec)
	if err != nil {
		return nil, err
	}
	for name, v := range kp {
		lm[name] = v
	}

	// Cluster health layer, as the server saw it.
	cl := m1.Cluster
	put("cluster.epoch", float64(cl.Epoch), "count")
	put("cluster.trips", float64(cl.Trips), "count")
	put("cluster.probes", float64(cl.Probes), "count")
	put("cluster.rebuilds", float64(cl.Rebuilds), "count")

	// Write path.
	var apply, lag []float64
	amp, missed := 0.0, 0
	if wr != nil {
		apply = append(durationsMS(outU.writer.apply), durationsMS(outT.writer.apply)...)
		lag = append(durationsMS(outU.writer.lag), durationsMS(outT.writer.lag)...)
		amp = wr.loader.Metrics.Amplification()
		missed = outU.writer.missed() + outT.writer.missed()
		fmt.Fprintln(log, "writer, untraced window:")
		printWriter(outU.writer, w, log)
		fmt.Fprintln(log, "writer, traced window:")
		printWriter(outT.writer, w, log)
	}
	put("bulkload.apply_ms_p50", median(apply), "ms")
	put("bulkload.apply_ms_p95", quantile(apply, 0.95), "ms")
	put("bulkload.allocs_per_commit", mean(pb.commitAllocs), "count")
	put("bulkload.write_amplification", amp, "ratio")
	put("writer.lag_ms_max", quantile(lag, 1), "ms")
	put("writer.missed_commits", float64(missed), "count")

	fmt.Fprintf(log, "traced run: untraced window %d queries in %.2fs, traced window %d queries in %.2fs, %d direct probes\n",
		len(outU.samples), outU.elapsed.Seconds(), len(outT.samples), outT.elapsed.Seconds(), len(pb.execAll)+pb.traced)
	fmt.Fprintf(log, "serve.plan_cache_hit_ratio base: %d lookups\n", lookups)
	rec.printTable(log)
	printMetrics(lm, log)
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d-%d.json", w.name, cfg.dataSeed, cfg.streamSeed))
	if err := writeSpans(rec, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", spans)
	if firstErr != nil {
		fmt.Fprintf(log, "FAILED: %d of %d operations failed; first: %v\n", failed, attempted, firstErr)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: lm}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumRejected(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSON(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// runProbes calls plan.Rewrite and engine.ExecuteCtx directly for every
// query of the mix, with the engine trace off and on. On a workload with
// a writer, each execution follows one synchronous commit, as a served
// read does under the open-loop writer, so the probe pays the same
// per-epoch rebuilds.
func runProbes(f *fixture, orc *oracle, wr *writer, rec *recorder) (*probes, error) {
	w := f.w
	pb := &probes{exec: map[string][]time.Duration{}, opBusy: map[string]time.Duration{}}
	cl := cluster.New(clusterOptions())
	defer func() {
		cl.WaitRebuilds()
		cl.Close()
	}()
	commit := func(parent *active) error {
		if wr == nil {
			return nil
		}
		if wr.next >= len(wr.batches) {
			return fmt.Errorf("probe: writer ran out of generated commits")
		}
		var err error
		sp := rec.start("bulkload.apply", parent)
		n, _, _ := allocs(func() { _, err = wr.loader.Apply(wr.batches[wr.next]...) })
		sp.end()
		wr.next++
		pb.commitAllocs = append(pb.commitAllocs, float64(n))
		return err
	}
	exec := func(q string, rw *plan.Rewritten, traceOn bool, parent *active) (*engine.Result, uint64, uint64, time.Duration, error) {
		name := "engine.execute"
		if traceOn {
			name = "engine.execute_traced"
		}
		opt := engine.ExecOptions{Cluster: cl, Fault: w.faultPolicy(), Trace: traceOn}
		var res *engine.Result
		var err error
		sp := rec.start(name, parent)
		n, b, d := allocs(func() { res, err = engine.ExecuteCtx(context.Background(), rw, f.pdb, opt) })
		sp.end()
		if err == nil {
			err = orc.check(q, res.Rows)
		}
		return res, n, b, d, err
	}
	for rep := 0; rep < probeReps; rep++ {
		for _, q := range w.queries {
			root := rec.start("probe", nil)
			node := f.t.Query(q)
			var rw *plan.Rewritten
			var err error
			sp := rec.start("plan.rewrite", root)
			n, _, d := allocs(func() { rw, err = plan.Rewrite(node, f.pdb.Schema, f.cfg, plan.Options{}) })
			sp.end()
			if err != nil {
				root.end()
				return pb, fmt.Errorf("probe rewrite %s: %w", q, err)
			}
			pb.rewrite = append(pb.rewrite, d)
			pb.rewriteAllocs = append(pb.rewriteAllocs, float64(n))

			// Alternate which mode runs first so neither always meets the
			// warmer cache.
			for _, traceOn := range []bool{rep%2 == 0, rep%2 != 0} {
				if err := commit(root); err != nil {
					root.end()
					return pb, err
				}
				res, n, b, d, err := exec(q, rw, traceOn, root)
				if err != nil {
					root.end()
					return pb, fmt.Errorf("probe %s: %w", q, err)
				}
				if traceOn {
					pb.wallOn += d
					pb.traced++
					res.Trace.Walk(func(ot *trace.OpTrace) {
						if b, ok := opBuckets[ot.Kind]; ok {
							pb.opBusy[b] += time.Duration(ot.Totals.WallNanos)
						}
					})
					continue
				}
				pb.wallOff += d
				pb.exec[q] = append(pb.exec[q], d)
				pb.execAll = append(pb.execAll, ms(d))
				pb.execAllocs = append(pb.execAllocs, float64(n))
				pb.execBytes = append(pb.execBytes, float64(b))
			}
			root.end()
		}
	}
	return pb, nil
}

// probeDesign times the schema-driven design algorithm on the fixture's
// data, whatever variant the workload serves.
func probeDesign(t *tpch.TPCH, rec *recorder) (time.Duration, error) {
	sp := rec.start("design.sd", nil)
	defer sp.end()
	t0 := time.Now()
	_, err := design.SchemaDriven(t.DB.Without(tpch.SmallTables()...), design.SDOptions{Parts: partitions})
	return time.Since(t0), err
}

// timeLoop runs fn until at least minDur has passed and at least three
// rounds ran, returning the median round time.
func timeLoop(minDur time.Duration, fn func()) time.Duration {
	var rounds []float64
	start := time.Now()
	for len(rounds) < 3 || time.Since(start) < minDur {
		t0 := time.Now()
		fn()
		rounds = append(rounds, float64(time.Since(t0)))
	}
	return time.Duration(median(rounds))
}

// probeKernels times the batch kernels and the columnar projection build
// on the fixture's data:
//   - Q6's predicate compiled with plan.CompilePred and applied with
//     batch.Filter over the largest lineitem partition's columns;
//   - batch.BuildInt64Table over orders.orderkey, probed with every
//     lineitem.orderkey;
//   - Partition.Columns on a fresh Clone of the largest lineitem
//     partition, the rebuild every write forces.
func probeKernels(f *fixture, rec *recorder) (map[string]metric, error) {
	out := map[string]metric{}
	snap := f.pdb.Snapshot()
	var part *table.Partition
	for _, p := range snap.Parts("lineitem") {
		if part == nil || p.Len() > part.Len() {
			part = p
		}
	}
	width := f.pdb.Schema.Table("lineitem").NumCols()

	// Q6 filter.
	rw, err := plan.Rewrite(f.t.Query("Q6"), f.pdb.Schema, f.cfg, plan.Options{})
	if err != nil {
		return nil, err
	}
	var filter *plan.FilterNode
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if fn, ok := n.(*plan.FilterNode); ok && filter == nil {
			filter = fn
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(rw.Root)
	if filter == nil {
		return nil, fmt.Errorf("kernels: Q6 has no filter")
	}
	sch := rw.Schemas[filter.Child]
	cols := part.Columns(width).Cols
	if len(sch) > len(cols) {
		return nil, fmt.Errorf("kernels: Q6 scan schema has %d columns, partition %d", len(sch), len(cols))
	}
	batches := batch.Chunks(cols[:len(sch)])
	if _, err := plan.CompilePred(filter.Pred, sch); err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	sp := rec.start("batch.filter", nil)
	d := timeLoop(20*time.Millisecond, func() {
		vp, _ := plan.CompilePred(filter.Pred, sch) // compiled without error above
		for _, b := range batches {
			batch.Filter(b, vp)
		}
	})
	sp.end()
	out["batch.filter_ns_per_row"] = metric{float64(d) / float64(max(part.Len(), 1)), "ns"}

	// Int64Table build and probe.
	var build, probe []int64
	for _, r := range f.t.DB.Tables["orders"].Rows {
		build = append(build, r[0])
	}
	for _, r := range f.t.DB.Tables["lineitem"].Rows {
		probe = append(probe, r[0])
	}
	sp = rec.start("batch.table_build", nil)
	var tbl *batch.Int64Table
	d = timeLoop(20*time.Millisecond, func() { tbl = batch.BuildInt64Table(build) })
	sp.end()
	out["batch.table_build_ns_per_key"] = metric{float64(d) / float64(len(build)), "ns"}
	sp = rec.start("batch.table_probe", nil)
	matched := 0
	d = timeLoop(20*time.Millisecond, func() {
		matched = 0
		for _, k := range probe {
			for i, ok := tbl.Head(k); ok; i, ok = tbl.Next(i) {
				matched++
			}
		}
	})
	sp.end()
	if matched != len(probe) {
		return nil, fmt.Errorf("kernels: %d of %d lineitem keys matched an order", matched, len(probe))
	}
	out["batch.table_probe_ns_per_key"] = metric{float64(d) / float64(len(probe)), "ns"}

	// Columnar projection rebuild.
	sp = rec.start("table.columns_build", nil)
	d = timeLoop(20*time.Millisecond, func() { part.Clone().Columns(width) })
	sp.end()
	out["table.columns_build_ms"] = metric{ms(d), "ms"}
	return out, nil
}

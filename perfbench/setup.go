package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pref/internal/cluster"
	"pref/internal/design"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/table"
	"pref/internal/tpch"
	"pref/internal/value"
)

const (
	scaleFactor = 0.01
	partitions  = 10
	tenant      = "bench"
)

// workload is one named traffic mix of the benchmark.
type workload struct {
	name    string
	variant string   // SD | AllHashed | AllReplicated
	queries []string // prepared-query mix, run as per-pass permutations
	streams int      // closed-loop read streams
	down    []int    // permanently failed nodes (fault.Policy.DownNodes)
	writeHz float64  // open-loop writer commits per second; 0 = read-only
}

var workloads = []workload{
	{name: "tpch-sd", variant: "SD", queries: tpch.QueryNames, streams: 2},
	{name: "tpch-hashed", variant: "AllHashed", queries: tpch.QueryNames, streams: 2},
	{name: "htap-degraded", variant: "AllReplicated", queries: []string{"Q1", "Q3", "Q6"},
		streams: 1, down: []int{3}, writeHz: 20},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// setupTimes are the layer timings of one fixture build.
type setupTimes struct {
	generate, design, partition, server, warm time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.design + s.partition + s.server + s.warm
}

// fixture is one served database: generated data, its design, the
// partitioned copy and the server over it.
type fixture struct {
	w     workload
	t     *tpch.TPCH
	cfg   *partition.Config
	pdb   *table.PartitionedDatabase
	srv   *serve.Server
	times setupTimes
	// storedRows and storageRatio are the stored tuple copies, and copies
	// per base tuple (DR+1), at setup.
	storedRows   int
	storageRatio float64
}

// variantConfig builds the partitioning design the workload serves.
func variantConfig(variant string, db *table.Database, n int) (*partition.Config, error) {
	cfg := partition.NewConfig(n)
	switch variant {
	case "SD":
		// As in prefserve: the small tables are replicated and the SD
		// algorithm designs the rest.
		small := tpch.SmallTables()
		sd, err := design.SchemaDriven(db.Without(small...), design.SDOptions{Parts: n})
		if err != nil {
			return nil, err
		}
		cfg = sd.Config.Clone()
		for _, t := range small {
			cfg.SetReplicated(t)
		}
	case "AllHashed":
		for _, t := range db.Schema.Tables() {
			cols := t.PK
			if len(cols) == 0 {
				cols = []string{t.Columns[0].Name}
			}
			cfg.SetHash(t.Name, cols...)
		}
	case "AllReplicated":
		for _, t := range db.Schema.Tables() {
			cfg.SetReplicated(t.Name)
		}
	default:
		return nil, fmt.Errorf("unknown variant %q", variant)
	}
	return cfg, nil
}

// faultPolicy is the workload's fixed failure: permanently down nodes that
// never repair. Nil for a healthy workload.
func (w workload) faultPolicy() *fault.Policy {
	if len(w.down) == 0 {
		return nil
	}
	return &fault.Policy{Seed: 1, DownNodes: w.down}
}

// clusterOptions is the rung-4 cluster layer the server and the direct
// engine probes share.
func clusterOptions() cluster.Options {
	return cluster.Options{Nodes: partitions, TripAfter: 3, CoolDownQueries: 1}
}

// buildFixture generates the data, designs and partitions it, starts the
// server and runs one untimed-by-the-load warm pass that fills the plan
// cache and the columnar projections. Every warm result is checked.
func buildFixture(w workload, dataSeed int64, orc *oracle, rec *recorder) (*fixture, error) {
	f := &fixture{w: w}
	root := rec.start("setup", nil)
	defer root.end()
	t0 := time.Now()
	sp := rec.start("tpch.generate", root)
	f.t = tpch.Generate(scaleFactor, dataSeed)
	sp.end()
	t1 := time.Now()
	sp = rec.start("design."+w.variant, root)
	cfg, err := variantConfig(w.variant, f.t.DB, partitions)
	sp.end()
	if err != nil {
		return nil, err
	}
	f.cfg = cfg
	t2 := time.Now()
	sp = rec.start("partition.apply", root)
	f.pdb, err = partition.Apply(f.t.DB, cfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	t3 := time.Now()
	queries := make(map[string]func() plan.Node, len(w.queries))
	for _, q := range w.queries {
		q := q
		queries[q] = func() plan.Node { return f.t.Query(q) }
	}
	opt := serve.Options{
		PDB:     f.pdb,
		Config:  cfg,
		Queries: queries,
		Tenants: []serve.TenantConfig{{Name: tenant}},
		Cluster: clusterOptions(),
	}
	if pol := w.faultPolicy(); pol != nil {
		opt.FaultFor = func(int64, int) *fault.Policy { return pol }
	}
	sp = rec.start("serve.new_server", root)
	f.srv, err = serve.NewServer(opt)
	sp.end()
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	warm := rec.start("serve.warm", root)
	defer warm.end()
	for _, q := range w.queries {
		sp := rec.start("serve.submit", warm)
		resp, err := f.srv.Submit(context.Background(), tenant, q)
		sp.end()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm pass %s: %w", q, err)
		}
		if err := orc.check(q, resp.Rows); err != nil {
			f.close()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	t5 := time.Now()
	f.times = setupTimes{
		generate: t1.Sub(t0), design: t2.Sub(t1), partition: t3.Sub(t2),
		server: t4.Sub(t3), warm: t5.Sub(t4),
	}
	f.storedRows = f.pdb.TotalStoredRows()
	f.storageRatio = float64(f.storedRows) / float64(f.t.DB.TotalRows())
	return f, nil
}

func (f *fixture) close() {
	if f.srv != nil {
		f.srv.Close(context.Background())
	}
}

// setupRepeated builds the fixture n times and keeps the last one; the
// setup time reported is the median of the n builds.
func setupRepeated(w workload, dataSeed int64, orc *oracle, n int, rec *recorder) (*fixture, []setupTimes, error) {
	var all []setupTimes
	var f *fixture
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
			f = nil
			runtime.GC()
		}
		var err error
		f, err = buildFixture(w, dataSeed, orc, rec)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, f.times)
	}
	return f, all, nil
}

// oracle holds each query's expected rows, computed on a one-partition,
// fully replicated copy of the same data with the row engine: that copy
// has no exchanges and no duplicates, so rewrite or exchange bugs in the
// served variant cannot cancel out against it.
type oracle struct {
	want map[string][]value.Tuple
}

func newOracle(queries []string, dataSeed int64) (*oracle, error) {
	t := tpch.Generate(scaleFactor, dataSeed)
	cfg, err := variantConfig("AllReplicated", t.DB, 1)
	if err != nil {
		return nil, err
	}
	pdb, err := partition.Apply(t.DB, cfg)
	if err != nil {
		return nil, err
	}
	o := &oracle{want: make(map[string][]value.Tuple, len(queries))}
	for _, q := range queries {
		rw, err := plan.Rewrite(t.Query(q), t.DB.Schema, cfg, plan.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		res, err := engine.ExecuteOpts(rw, pdb, engine.ExecOptions{RowEngine: true})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		o.want[q] = sortedRows(res.Rows)
	}
	return o, nil
}

// sortedRows returns a lexicographically sorted copy of rows.
func sortedRows(rows []value.Tuple) []value.Tuple {
	r := &engine.Result{Rows: append([]value.Tuple(nil), rows...)}
	r.SortRows()
	return r.Rows
}

// check compares a served result, in any row order, with the expected rows.
func (o *oracle) check(query string, rows []value.Tuple) error {
	want, ok := o.want[query]
	if !ok {
		return fmt.Errorf("%s: no expected rows", query)
	}
	got := sortedRows(rows)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", query, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s: row %d has %d columns, want %d", query, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("%s: row %d column %d = %d, want %d", query, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

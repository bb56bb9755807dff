package engine

import (
	"fmt"
	"testing"

	"pref/internal/catalog"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Differential tests for aggregation: the columnar Aggregate, PartialAgg
// and FinalAgg against the row engine's, over every aggregate function,
// int and float arguments, NULL-extended arguments, 0–3 group columns,
// empty and fully filtered partitions, and each rewrite shape.

// aggSchema: fact(id, k1, k2, k3, iv, fv, ref) / dim(dk, dv, df). k1–k3 are
// low-cardinality group keys (k3 a dictionary string), iv and fv int and
// float measures, and ref references dim with a quarter of its values
// dangling, so a LEFT OUTER join NULL-extends dim's measures.
func aggSchema() *catalog.Schema {
	s := catalog.NewSchema("agg")
	s.MustAddTable(catalog.MustTable("fact", []catalog.Column{
		{Name: "id", Kind: value.Int}, {Name: "k1", Kind: value.Int}, {Name: "k2", Kind: value.Int},
		{Name: "k3", Kind: value.Str}, {Name: "iv", Kind: value.Int}, {Name: "fv", Kind: value.Float},
		{Name: "ref", Kind: value.Int},
	}, "id"))
	s.MustAddTable(catalog.MustTable("dim", []catalog.Column{
		{Name: "dk", Kind: value.Int}, {Name: "dv", Kind: value.Int}, {Name: "df", Kind: value.Float},
	}, "dk"))
	return s
}

// aggDB fills 4000 fact rows, so every non-empty partition spans more than
// one batch and float sums are sensitive to accumulation order.
func aggDB(t testing.TB) *table.Database {
	t.Helper()
	db := table.NewDatabase(aggSchema())
	dict := db.Schema.Table("fact").Dict("k3")
	for i := int64(0); i < 4000; i++ {
		db.Tables["fact"].MustAppend(value.Tuple{
			i, i % 3, i % 5, dict.Code(fmt.Sprintf("s%d", i%4)),
			(i*7)%23 - 5, value.FromFloat(float64(i%13)*0.37 - 1.1), i % 40,
		})
	}
	for i := int64(0); i < 30; i++ {
		db.Tables["dim"].MustAppend(value.Tuple{i, (i * 3) % 11, value.FromFloat(float64(i) * 1.25)})
	}
	return db
}

// aggConfigs are the placements behind the rewrite shapes: a replicated
// fact aggregates locally everywhere; fact hashed on k1 aggregates locally
// when the group key covers k1 and leaves partitions empty (k1 has three
// values over four partitions); fact hashed on id repartitions by the
// group key. dim is replicated throughout, so the outer join stays local.
func aggConfigs() []struct {
	name string
	cfg  *partition.Config
} {
	repl := partition.NewConfig(4)
	repl.SetReplicated("fact").SetReplicated("dim")
	byK1 := partition.NewConfig(4)
	byK1.SetHash("fact", "k1").SetReplicated("dim")
	byID := partition.NewConfig(4)
	byID.SetHash("fact", "id").SetReplicated("dim")
	return []struct {
		name string
		cfg  *partition.Config
	}{{"repl", repl}, {"hash-k1", byK1}, {"hash-id", byID}}
}

// aggExprs builds every aggregate function over each argument column,
// plus COUNT(*) and int and float computed arguments. distinct adds
// COUNT(DISTINCT), which forces a global aggregation onto the gathered
// path instead of partial/final.
func aggExprs(intCols, floatCols []string, distinct bool) []plan.AggExpr {
	aggs := []plan.AggExpr{
		plan.Count("n"),
		plan.Sum(plan.F("prod", value.Int, []string{"f.iv", "f.k2"},
			func(v []int64) int64 { return v[0] * v[1] }), "sum_prod"),
		plan.Avg(plan.F("half", value.Float, []string{"f.fv"},
			func(v []int64) int64 { return value.FromFloat(value.ToFloat(v[0]) / 2) }), "avg_half"),
	}
	for _, c := range append(append([]string{}, intCols...), floatCols...) {
		aggs = append(aggs,
			plan.Sum(plan.Col(c), "sum_"+c), plan.Avg(plan.Col(c), "avg_"+c),
			plan.Min(plan.Col(c), "min_"+c), plan.Max(plan.Col(c), "max_"+c),
			plan.CountCol(plan.Col(c), "cnt_"+c))
		if distinct {
			aggs = append(aggs, plan.CountDistinct(plan.Col(c), "dcnt_"+c))
		}
	}
	return aggs
}

// aggShape classifies the aggregation operators of a rewritten plan.
func aggShape(root plan.Node) string {
	var shape string
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.FinalAggNode:
			shape = "partial-gather-final"
		case *plan.AggregateNode:
			switch n.Child.(type) {
			case *plan.RepartitionNode:
				shape = "repartition-aggregate"
			case *plan.GatherNode:
				shape = "gather-aggregate"
			default:
				shape = "local-aggregate"
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return shape
}

type aggCase struct {
	name string
	cfg  *partition.Config
	mk   func() plan.Node
}

// aggCases crosses placements × inputs × group keys × aggregate lists.
func aggCases() []aggCase {
	inputs := []struct {
		name   string
		mk     func() plan.Node
		ints   []string
		floats []string
	}{
		{"scan", func() plan.Node { return plan.Scan("fact", "f") }, []string{"f.iv"}, []string{"f.fv"}},
		{"outer-join", func() plan.Node {
			return plan.Join(plan.Scan("fact", "f"), plan.Scan("dim", "d"), plan.LeftOuter,
				[]string{"f.ref"}, []string{"d.dk"})
		}, []string{"f.iv", "d.dv"}, []string{"f.fv", "d.df"}},
		{"filtered-one-key", func() plan.Node {
			return plan.Filter(plan.Scan("fact", "f"), plan.Eq(plan.Col("f.k1"), plan.Lit(1)))
		}, []string{"f.iv"}, []string{"f.fv"}},
		{"filtered-all", func() plan.Node {
			return plan.Filter(plan.Scan("fact", "f"), plan.Gt(plan.Col("f.iv"), plan.Lit(1000)))
		}, []string{"f.iv"}, []string{"f.fv"}},
	}
	groupings := [][]string{nil, {"f.k1"}, {"f.k1", "f.k2"}, {"f.k1", "f.k2", "f.k3"}}
	var cases []aggCase
	for _, pl := range aggConfigs() {
		for _, in := range inputs {
			for _, g := range groupings {
				for _, distinct := range []bool{false, true} {
					in, g, distinct := in, g, distinct
					cases = append(cases, aggCase{
						name: fmt.Sprintf("%s/%s/group%d/distinct=%v", pl.name, in.name, len(g), distinct),
						cfg:  pl.cfg,
						mk: func() plan.Node {
							return plan.Aggregate(in.mk(), g, aggExprs(in.ints, in.floats, distinct)...)
						},
					})
				}
			}
		}
	}
	return cases
}

// TestAggregateEnginesAgree runs every aggregation case on both engines
// fault-free, under crash and shipment-failure retries, and with node 1
// down, requiring equal rows, Stats and trace totals and a vectorized
// trace that passes check.VerifyTrace. It also requires that the case
// table reaches every rewrite shape of an aggregation.
func TestAggregateEnginesAgree(t *testing.T) {
	db := aggDB(t)
	pdbs := map[*partition.Config]*table.PartitionedDatabase{}
	shapes := map[string]int{}
	downOK := 0
	for i, c := range aggCases() {
		pdb, ok := pdbs[c.cfg]
		if !ok {
			var err error
			if pdb, err = partition.Apply(db, c.cfg); err != nil {
				t.Fatal(err)
			}
			pdbs[c.cfg] = pdb
		}
		rw, err := plan.Rewrite(c.mk(), db.Schema, c.cfg, plan.Options{})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", c.name, err)
		}
		shapes[aggShape(rw.Root)]++
		exec := func(opt ExecOptions) (*Result, error) { return ExecuteOpts(rw, pdb, opt) }
		t.Run(c.name, func(t *testing.T) {
			seed := int64(i)
			assertEnginesAgree(t, seed, rw, exec, ExecOptions{Trace: true})
			assertEnginesAgree(t, seed, rw, exec, ExecOptions{Trace: true,
				Fault: &fault.Policy{Seed: seed, CrashProb: 0.2, ShipFailProb: 0.2, MaxAttempts: 16}})
			down := ExecOptions{Trace: true, Fault: &fault.Policy{Seed: seed, DownNodes: []int{1}, MaxAttempts: 8}}
			assertEnginesAgree(t, seed, rw, exec, down)
			if _, err := exec(down); err == nil {
				downOK++
			}
		})
	}
	for _, s := range []string{"local-aggregate", "repartition-aggregate", "partial-gather-final", "gather-aggregate"} {
		if shapes[s] == 0 {
			t.Errorf("no case rewrites to the %s shape (shapes: %v)", s, shapes)
		}
	}
	if downOK == 0 {
		t.Error("no case survives node loss: the node-loss schedule checks only failures")
	}
}

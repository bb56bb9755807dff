package engine

import (
	"errors"
	"reflect"
	"testing"

	"pref/internal/cluster"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// TestSharedClusterKeepsDatabasesApart: one cluster fronts two partitioned
// databases with the same table names, the same down node and different
// contents. In the first, every dim row is a PREF duplicate held by every
// partition, so the lost dim partition is recoverable; in the second each
// dim row has a single partner, so it is stored once and lost with its
// node. Whatever the order, each degraded query must return its own
// database's oracle or its own typed loss — recoverability learned from
// one database must never answer for the other.
func TestSharedClusterKeepsDatabasesApart(t *testing.T) {
	covered, cfg := recoveryDB(t)
	single, _ := recoveryDB(t)
	single.Tables["fact"].Rows = nil
	for d := int64(0); d < 5; d++ {
		single.Tables["fact"].MustAppend(value.Tuple{d, d})
	}
	mk := func() plan.Node {
		return plan.ProjectCols(plan.Scan("dim", "x"), "x.d", "x.payload")
	}
	pc := prepareQuery(t, mk, covered, cfg)
	ps := prepareQuery(t, mk, single, cfg)
	down := -1
	for p := range pc.pdb.Tables["dim"].Parts {
		if lostRows(pc.pdb.Tables["dim"].Parts, p) == 0 && ps.pdb.Tables["dim"].Parts[p].Len() > 0 {
			down = p
			break
		}
	}
	if down < 0 {
		t.Fatal("precondition: no partition is recoverable in one database and lost in the other")
	}
	if lostRows(ps.pdb.Tables["dim"].Parts, down) == 0 {
		t.Fatal("precondition: the single-copy database must lose dim rows")
	}
	oracle, err := pc.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cl := cluster.New(cluster.Options{Nodes: cfg.NumPartitions})
	defer cl.Close()
	eopt := ExecOptions{Cluster: cl, Fault: &fault.Policy{DownNodes: []int{down}}}
	for i, pq := range []prepared{pc, ps, pc, ps} {
		res, err := pq.run(t, eopt)
		if pq.pdb == pc.pdb {
			if err != nil {
				t.Fatalf("query %d on the covered database: %v", i, err)
			}
			if !reflect.DeepEqual(res.Rows, oracle.Rows) {
				t.Fatalf("query %d on the covered database: got %v, want %v", i, res.Rows, oracle.Rows)
			}
			continue
		}
		var ple *fault.PartitionLostError
		if !errors.As(err, &ple) || ple.Table != "dim" || ple.Partition != down {
			t.Fatalf("query %d on the single-copy database: err = %v, want dim partition %d lost", i, err, down)
		}
	}
}

// lostRows counts the rows of partition p with no identical copy on any
// other partition.
func lostRows(parts []*table.Partition, p int) int {
	lost := 0
	for _, r := range parts[p].Rows {
		found := false
		for q, other := range parts {
			for _, s := range other.Rows {
				if q != p && reflect.DeepEqual(r, s) {
					found = true
				}
			}
		}
		if !found {
			lost++
		}
	}
	return lost
}

package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pref/internal/bulkload"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/value"
)

// smallWorkload is a cheap healthy mix for the self-tests.
var smallWorkload = workload{name: "test", variant: "SD", queries: []string{"Q1", "Q6", "Q14"}, streams: 1}

// TestCorruptedOracleIsCaught corrupts one expected row and requires both
// the warm pass and the measured load to reject the served results.
func TestCorruptedOracleIsCaught(t *testing.T) {
	orc, err := newOracle(smallWorkload.queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := buildFixture(smallWorkload, 1, orc, nil)
	if err != nil {
		t.Fatalf("clean oracle rejected the served results: %v", err)
	}
	defer f.close()
	if out := runStreams(f, orc, 1, 0, 100*time.Millisecond, nil); out.failed != 0 || len(out.samples) == 0 {
		t.Fatalf("clean run: %d of %d failed, %d served; first: %v", out.failed, out.attempted, len(out.samples), out.firstErr)
	}

	orc.want["Q6"][0] = append(value.Tuple(nil), orc.want["Q6"][0]...)
	orc.want["Q6"][0][0]++

	if _, err := buildFixture(smallWorkload, 1, orc, nil); err == nil || !strings.Contains(err.Error(), "Q6") {
		t.Fatalf("warm pass accepted a corrupted expected row: %v", err)
	}
	out := runStreams(f, orc, 1, 0, 100*time.Millisecond, nil)
	if out.mismatches == 0 || out.failed < out.mismatches {
		t.Fatalf("corrupted expected row not caught: %d mismatches, %d failed of %d", out.mismatches, out.failed, out.attempted)
	}
	res := endToEnd(f, out, []setupTimes{f.times}, &strings.Builder{})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("result line reports a mismatching run as correct: %+v", res)
	}
}

// TestSeedsReproduceInputs checks that one seed gives the same query
// order and write batches, and another seed a different order.
func TestSeedsReproduceInputs(t *testing.T) {
	n := len(tpch.QueryNames)
	for stream := 0; stream < 2; stream++ {
		for pass := 0; pass < 3; pass++ {
			if !reflect.DeepEqual(passOrder(7, stream, pass, n), passOrder(7, stream, pass, n)) {
				t.Fatalf("seed 7 stream %d pass %d: order not reproducible", stream, pass)
			}
		}
	}
	if reflect.DeepEqual(passOrder(7, 0, 0, n), passOrder(8, 0, 0, n)) {
		t.Fatal("seeds 7 and 8 give the same query order")
	}
	if reflect.DeepEqual(passOrder(7, 0, 0, n), passOrder(7, 1, 0, n)) {
		t.Fatal("two streams of one seed share a query order")
	}

	th := tpch.Generate(scaleFactor, 1)
	a, err := makeWrites(th, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeWrites(th, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7: write batches not reproducible")
	}
	c, err := makeWrites(th, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 give the same write batches")
	}
}

// TestWritesKeepReadOracle applies writer commits to the htap variant and
// requires Q1, Q3 and Q6 to still return their epoch-0 rows: the new rows
// flow through the write path but lie outside every read's predicates.
func TestWritesKeepReadOracle(t *testing.T) {
	w, err := workloadByName("htap-degraded")
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(w.queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	th := tpch.Generate(scaleFactor, 1)
	cfg, err := variantConfig(w.variant, th.DB, partitions)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := partition.Apply(th.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := makeWrites(th, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	l := bulkload.NewLoader(pdb, cfg)
	for i, wb := range batches {
		if wb[0].Table != []string{"orders", "lineitem"}[i%2] {
			t.Fatalf("commit %d writes %s; commits must alternate orders and lineitem", i, wb[0].Table)
		}
		if _, err := l.Apply(wb...); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if pdb.Epoch() == 0 {
		t.Fatal("writes published no epoch")
	}
	for _, q := range w.queries {
		rw, err := plan.Rewrite(th.Query(q), th.DB.Schema, cfg, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.ExecuteOpts(rw, pdb, engine.ExecOptions{Fault: w.faultPolicy()})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := orc.check(q, res.Rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterFlagsBacklog checks that commits that fell due but were not
// sent, or were sent late, mark the writer as behind.
func TestWriterFlagsBacklog(t *testing.T) {
	ok := writerOut{due: 20, sent: 20, lag: make([]time.Duration, 20)}
	if behind(ok, 20) {
		t.Fatal("an on-schedule writer is flagged")
	}
	if backlog := (writerOut{due: 20, sent: 18, lag: make([]time.Duration, 18)}); !behind(backlog, 20) {
		t.Fatal("unsent due commits are not flagged")
	}
	late := writerOut{due: 20, sent: 20, lag: make([]time.Duration, 20)}
	for i := 0; i < 5; i++ {
		late.lag[i] = 200 * time.Millisecond
	}
	if !behind(late, 20) {
		t.Fatal("a writer sending a quarter of its commits late is not flagged")
	}
}

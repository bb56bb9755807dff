package cluster

import (
	"errors"
	"testing"
	"time"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

// newTestCluster builds a small cluster with deterministic thresholds and
// registers its Close with the test.
func newTestCluster(t *testing.T, opt Options) *Cluster {
	t.Helper()
	if opt.Nodes == 0 {
		opt.Nodes = 4
	}
	c := New(opt)
	t.Cleanup(c.Close)
	return c
}

// testPDB builds a 4-partition database where every row of table "t" is
// stored on two partitions (p and (p+1)%4), so any single node is fully
// rebuildable from survivors.
func testPDB(t *testing.T) *table.PartitionedDatabase {
	t.Helper()
	meta, err := catalog.NewTable("t", []catalog.Column{{Name: "k"}, {Name: "v"}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	pt := table.NewPartitioned(meta, 4)
	for k := 0; k < 20; k++ {
		p := k % 4
		row := value.Tuple{int64(k), int64(100 + k)}
		pt.Parts[p].Append(row, false, false)
		pt.Parts[(p+1)%4].Append(row, true, false)
	}
	pt.OriginalRows = 20
	return &table.PartitionedDatabase{Tables: map[string]*table.Partitioned{"t": pt}, N: 4}
}

// uncoveredPDB stores every row exactly once: losing any node loses data.
func uncoveredPDB(t *testing.T) *table.PartitionedDatabase {
	t.Helper()
	meta, err := catalog.NewTable("t", []catalog.Column{{Name: "k"}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	pt := table.NewPartitioned(meta, 4)
	for k := 0; k < 8; k++ {
		pt.Parts[k%4].Append(value.Tuple{int64(k)}, false, false)
	}
	pt.OriginalRows = 8
	return &table.PartitionedDatabase{Tables: map[string]*table.Partitioned{"t": pt}, N: 4}
}

// runQuery runs one admitted query through BeginQuery and ends it, which
// ticks the breaker cool-downs.
func runQuery(t *testing.T, c *Cluster, src *table.PartitionedDatabase, downNow func(int) bool, probeOK func(int, int) bool) View {
	t.Helper()
	v, _, end, err := c.BeginQuery(src, downNow, probeOK)
	if err != nil {
		t.Fatal(err)
	}
	end()
	return v
}

func TestNilClusterIsDisabled(t *testing.T) {
	var c *Cluster
	v, snap, end, err := c.BeginQuery(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	end()
	if len(v.Serving) != 0 || snap != nil || v.Probed != 0 {
		t.Fatal("nil cluster must return an empty view")
	}
	c.ReportSuccess(0)
	c.ReportFailure(0)
	if !c.Allow(0) {
		t.Fatal("nil cluster must allow everything")
	}
	if c.NodeState(0) != Healthy {
		t.Fatal("nil cluster nodes are healthy")
	}
	if _, ok := c.HedgeDelay(); ok {
		t.Fatal("nil cluster must not hedge")
	}
	c.ObserveUnit(time.Millisecond)
	c.WaitRebuilds()
	c.Close()
}

// TestBreakerTripAndFSM walks healthy → suspect → down on consecutive
// failures and back to healthy on success before the trip.
func TestBreakerTripAndFSM(t *testing.T) {
	c := newTestCluster(t, Options{TripAfter: 3})
	if c.NodeState(2) != Healthy {
		t.Fatal("fresh node must be healthy")
	}
	c.ReportFailure(2)
	if c.NodeState(2) != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", c.NodeState(2))
	}
	// A success clears the streak.
	c.ReportSuccess(2)
	if c.NodeState(2) != Healthy {
		t.Fatalf("after success: %v, want healthy", c.NodeState(2))
	}
	// Three consecutive failures trip the breaker.
	c.ReportFailure(2)
	c.ReportFailure(2)
	if !c.Allow(2) {
		t.Fatal("suspect node must still serve")
	}
	c.ReportFailure(2)
	if c.NodeState(2) != Down {
		t.Fatalf("after 3 failures: %v, want down", c.NodeState(2))
	}
	if c.Allow(2) {
		t.Fatal("tripped node must not serve")
	}
	if got := c.Stats().Trips; got != 1 {
		t.Fatalf("Trips = %d, want 1", got)
	}
	// Further failures on a down node are no-ops.
	c.ReportFailure(2)
	if got := c.Stats().Trips; got != 1 {
		t.Fatalf("Trips after redundant failure = %d, want 1", got)
	}
	v := c.View()
	if v.Serving[2] || !v.Serving[0] {
		t.Fatal("view must exclude only the tripped node")
	}
}

// TestEpochCountsTransitions: the health epoch moves on every state
// transition and on nothing else.
func TestEpochCountsTransitions(t *testing.T) {
	c := newTestCluster(t, Options{TripAfter: 1})
	runQuery(t, c, nil, nil, nil)
	if e := c.Stats().Epoch; e != 0 {
		t.Fatalf("epoch after a clean query = %d, want 0", e)
	}
	c.ReportFailure(1) // trips (TripAfter 1): epoch bump
	if e := c.Stats().Epoch; e != 1 {
		t.Fatalf("epoch after trip = %d, want 1", e)
	}
	c.ReportFailure(1) // already down: no transition
	if e := c.Stats().Epoch; e != 1 {
		t.Fatalf("epoch after redundant failure = %d, want 1", e)
	}
}

// TestBeginQueryRejectsNodeCountMismatch: a database whose partition
// count differs from the node count is refused with ErrNodeCount, and the
// refused query does not tick cool-downs.
func TestBeginQueryRejectsNodeCountMismatch(t *testing.T) {
	c := newTestCluster(t, Options{Nodes: 2, TripAfter: 1, CoolDownQueries: 1})
	c.ReportFailure(1) // trips node 1; cool-down 1
	if _, _, _, err := c.BeginQuery(testPDB(t), nil, nil); !errors.Is(err, ErrNodeCount) {
		t.Fatalf("BeginQuery(4 partitions) on 2 nodes = %v, want ErrNodeCount", err)
	}
	probeOK := func(int, int) bool { return false }
	if v := runQuery(t, c, nil, nil, probeOK); v.Probed != 0 {
		t.Fatal("refused query ticked the cool-down")
	}
	if v := runQuery(t, c, nil, nil, probeOK); v.Probed != 1 {
		t.Fatalf("probes after one completed query = %d, want 1", v.Probed)
	}
}

// TestProbeLifecycleAndRebuild drives the full FSM loop: trip via
// BeginQuery's downNow hook, cool down over completed queries, fail one
// half-open probe, pass the next, rebuild in the background, serve again.
func TestProbeLifecycleAndRebuild(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1, TripAfter: 3})
	pdb := testPDB(t)
	downNow := func(n int) bool { return n == 1 }
	probeOK := func(n, probes int) bool { return probes >= 1 } // second probe passes

	// Query 1: node 1 reported down now → tripped without burning retries.
	// Ending it completes query 1: cool-down 1 → 0.
	v := runQuery(t, c, pdb, downNow, probeOK)
	if v.Probed != 0 || v.Serving[1] || c.NodeState(1) != Down {
		t.Fatalf("query 1: probes=%d serving=%v state=%v", v.Probed, v.Serving[1], c.NodeState(1))
	}

	// Query 2: cool-down expired → half-open probe, which fails.
	v = runQuery(t, c, pdb, downNow, probeOK)
	if v.Probed != 1 || v.Serving[1] {
		t.Fatalf("query 2: probes=%d serving=%v, want a failed probe", v.Probed, v.Serving[1])
	}
	if st := c.Stats(); st.Probes != 1 || st.ProbeSuccesses != 0 {
		t.Fatalf("query 2: stats = %+v, want 1 failed probe", st)
	}

	// Query 3: second probe passes → recovering, rebuild enqueued.
	v, _, _, err := c.BeginQuery(pdb, downNow, probeOK)
	if err != nil || v.Probed != 1 {
		t.Fatalf("query 3: probes=%d err=%v, want 1", v.Probed, err)
	}
	c.WaitRebuilds()
	if c.NodeState(1) != Healthy {
		t.Fatalf("after rebuild: %v, want healthy", c.NodeState(1))
	}
	st := c.Stats()
	if st.Probes != 2 || st.ProbeSuccesses != 1 || st.Rebuilds != 1 {
		t.Fatalf("stats = %+v, want 2 probes, 1 success, 1 rebuild", st)
	}
	if st.RebuiltRows != 10 { // node 1 held 5 primaries + 5 dup copies
		t.Fatalf("RebuiltRows = %d, want 10", st.RebuiltRows)
	}
	if st.RebuiltBytes != 10*2*8 {
		t.Fatalf("RebuiltBytes = %d, want %d", st.RebuiltBytes, 10*2*8)
	}
	// Query 4: the recovered node serves again and downNow is ignored
	// (the view reports it healed so the engine clears injected faults).
	v, _, _, _ = c.BeginQuery(pdb, downNow, probeOK)
	if !v.Serving[1] || !v.Recovered[1] {
		t.Fatalf("query 4: serving=%v recovered=%v, want both", v.Serving[1], v.Recovered[1])
	}
}

// TestRebuildUnrecoverable: a node whose partition has no surviving copy
// stays down for good, marked lost, and is never probed again.
func TestRebuildUnrecoverable(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1})
	pdb := uncoveredPDB(t)
	downNow := func(n int) bool { return n == 2 }
	probeOK := func(int, int) bool { return true }

	runQuery(t, c, pdb, downNow, probeOK) // trip
	runQuery(t, c, pdb, downNow, probeOK) // probe passes → rebuild attempt
	c.WaitRebuilds()
	if c.NodeState(2) != Down {
		t.Fatalf("unrecoverable node state = %v, want down", c.NodeState(2))
	}
	st := c.Stats()
	if st.FailedRebuilds != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats = %+v, want exactly 1 failed rebuild", st)
	}
	// No further probes: the node is lost, not cooling down.
	runQuery(t, c, pdb, downNow, probeOK)
	if v := runQuery(t, c, pdb, downNow, probeOK); v.Probed != 0 {
		t.Fatal("lost node must not be probed again")
	}
}

// TestHedgeDelayPricing: cold sampler → MaxDelay; warm sampler →
// clamp(2 × p95, Min, Max).
func TestHedgeDelayPricing(t *testing.T) {
	c := newTestCluster(t, Options{Hedge: HedgePolicy{
		Enabled: true, MinDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond,
	}})
	for i := 0; i < hedgeWarmup-1; i++ {
		c.ObserveUnit(3 * time.Millisecond)
	}
	d, ok := c.HedgeDelay()
	if !ok || d != 100*time.Millisecond {
		t.Fatalf("cold delay = %v ok=%v, want MaxDelay", d, ok)
	}
	for i := 0; i < 100; i++ {
		c.ObserveUnit(3 * time.Millisecond)
	}
	d, ok = c.HedgeDelay()
	if !ok || d != 6*time.Millisecond {
		t.Fatalf("warm delay = %v ok=%v, want 6ms (2 × p95 of 3ms)", d, ok)
	}
	// Clamping at both ends.
	cLow := newTestCluster(t, Options{Hedge: HedgePolicy{
		Enabled: true, MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond,
	}})
	for i := 0; i < hedgeWarmup; i++ {
		cLow.ObserveUnit(time.Microsecond)
	}
	if d, _ := cLow.HedgeDelay(); d != 50*time.Millisecond {
		t.Fatalf("clamped-low delay = %v, want MinDelay", d)
	}
	off := newTestCluster(t, Options{})
	if _, ok := off.HedgeDelay(); ok {
		t.Fatal("hedging disabled by default")
	}
}

// TestCloseIdempotentAndWakesWaiters: Close joins the worker, is safe to
// call twice, and rejects later queries.
func TestCloseIdempotentAndWakesWaiters(t *testing.T) {
	c := New(Options{Nodes: 2})
	c.Close()
	c.Close()
	if _, _, _, err := c.BeginQuery(nil, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("BeginQuery after Close = %v, want ErrClosed", err)
	}
	c.WaitRebuilds() // must not hang on a closed cluster
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Healthy: "healthy", Suspect: "suspect", Down: "down", Recovering: "recovering", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

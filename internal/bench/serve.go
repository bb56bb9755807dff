package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/tpch"
)

// serveQueries is the prepared-query mix of the serving experiment: the
// same light/medium/heavy TPC-H trio the hedge sweep uses.
var serveQueries = []string{"Q1", "Q3", "Q6"}

// serveRegime is one health state of the serving sweep: a name and the
// fault schedule drawn for each execution attempt.
type serveRegime struct {
	name  string
	fault func(seed, seq int64, attempt int) *fault.Policy
}

// serveRegimes sweeps healthy → degraded → fault storm. The storm layers
// crashes, stragglers, shipment failures, and a terminally flaky node on
// top of each other; the serving layer's job is to keep cheap queries
// flowing and fail the rest with typed errors, not to survive unscathed.
var serveRegimes = []serveRegime{
	{name: "healthy", fault: nil},
	{name: "degraded", fault: func(seed, seq int64, attempt int) *fault.Policy {
		return &fault.Policy{
			Seed:      seed + seq*31 + int64(attempt)*7,
			CrashProb: 0.10, StragglerProb: 0.05, StragglerDelay: 2 * time.Millisecond,
		}
	}},
	{name: "storm", fault: func(seed, seq int64, attempt int) *fault.Policy {
		// Node 1 crashes the first two attempts of every unit: inside the
		// engine's attempt budget, so queries survive — slowly, burning
		// retries — while crashes, stragglers and shipment failures rage
		// everywhere else. (A terminally flaky node would simply fail every
		// query typed: hash-partitioned lineitem has no redundancy to
		// rebuild from, which is its own tested property, not this one.)
		return &fault.Policy{
			Seed:      seed + seq*31 + int64(attempt)*7,
			CrashProb: 0.30, StragglerProb: 0.25, StragglerDelay: 5 * time.Millisecond,
			ShipFailProb: 0.15,
			FlakyNodes:   map[int]int{1: 2},
		}
	}},
}

// serveLoadParams configures one regime run of the serving benchmark.
type serveLoadParams struct {
	Seed     int64
	Workers  int
	Queries  int           // per worker
	Pace     time.Duration // per-worker think time between submissions
	Deadline []time.Duration
	Regime   serveRegime
}

// serveLoadOut aggregates one regime run.
type serveLoadOut struct {
	Elapsed  time.Duration
	Metrics  serve.Metrics
	Rejected int64 // all ladder stages summed
	Untyped  int64 // failures matching no typed class (must stay 0)
}

// newServeServer builds a serving stack over the SD-paper TPC-H design.
func newServeServer(p Params, t *tpch.TPCH, m *Materialized, v *Variant, regime serveRegime) (*serve.Server, error) {
	queries := make(map[string]func() plan.Node, len(serveQueries))
	for _, q := range serveQueries {
		q := q
		queries[q] = func() plan.Node { return t.Query(q) }
	}
	opt := serve.Options{
		PDB:     m.PDBs[0],
		Config:  v.Groups[0].Config,
		Queries: queries,
		Tenants: []serve.TenantConfig{
			{Name: "gold", Weight: 4},
			{Name: "silver", Weight: 2},
			{Name: "bronze", Weight: 1, Rate: 200, Burst: 20},
		},
		MaxConcurrent: 6,
		QueueTimeout:  150 * time.Millisecond,
		ShedThreshold: 1.5,
		MaxAttempts:   3,
		Cluster:       cluster.Options{Nodes: p.Parts, TripAfter: 3, CoolDownQueries: 1},
		// No buffer-pool penalty here: the sweep measures serving-layer
		// latency quantiles, not the cache-collapse story of Figure 7.
	}
	if regime.fault != nil {
		seed := p.Seed
		opt.FaultFor = func(seq int64, attempt int) *fault.Policy {
			return regime.fault(seed, seq, attempt)
		}
	}
	return serve.NewServer(opt)
}

// typedServeFailure reports whether a failed submission carries one of
// the serving layer's typed error classes. Anything else is a taxonomy
// hole.
func typedServeFailure(err error) bool {
	var rej *serve.RejectedError
	return errors.As(err, &rej) ||
		errors.Is(err, engine.ErrDeadlineExceeded) ||
		errors.Is(err, engine.ErrAllNodesDown) ||
		errors.Is(err, serve.ErrServerClosed) ||
		errors.Is(err, serve.ErrAdmissionTimeout) ||
		errors.Is(err, cluster.ErrNodeTripped) ||
		errors.Is(err, fault.ErrNodeFailed) ||
		errors.Is(err, fault.ErrShipmentFailed) ||
		errors.Is(err, fault.ErrPartitionLost) ||
		errors.Is(err, context.Canceled)
}

// runServeLoad drives one regime: Workers concurrent clients, each
// submitting Queries paced submissions under a rotating tenant, query,
// and deadline mix, against a fresh serving stack.
func runServeLoad(s *serve.Server, lp serveLoadParams) (*serveLoadOut, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		untyped []error
	)
	tenants := []string{"gold", "silver", "bronze"}
	start := time.Now()
	for w := 0; w < lp.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(lp.Seed + int64(w)))
			tenant := tenants[w%len(tenants)]
			for i := 0; i < lp.Queries; i++ {
				query := serveQueries[rng.Intn(len(serveQueries))]
				ctx := context.Background()
				cancel := func() {}
				if d := lp.Deadline[rng.Intn(len(lp.Deadline))]; d > 0 {
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				_, err := s.Submit(ctx, tenant, query)
				cancel()
				if err != nil && !typedServeFailure(err) {
					mu.Lock()
					untyped = append(untyped, err)
					mu.Unlock()
				}
				if lp.Pace > 0 {
					time.Sleep(lp.Pace + time.Duration(rng.Int63n(int64(lp.Pace))))
				}
			}
		}(w)
	}
	wg.Wait()
	out := &serveLoadOut{Elapsed: time.Since(start), Metrics: s.Metrics()}
	for _, n := range out.Metrics.Rejected {
		out.Rejected += n
	}
	out.Untyped = int64(len(untyped))
	if len(untyped) > 0 {
		return out, fmt.Errorf("bench: %d untyped serving failures, first: %w", len(untyped), untyped[0])
	}
	return out, nil
}

// ServeLoad regenerates the serving-layer SLO sweep: a mixed TPC-H load
// at a paced rate against one serving stack per health regime, reporting
// success-latency quantiles and the typed-outcome mix. The headline
// property is graceful degradation: under the fault storm, typed
// rejections and deadline kills rise while the p99 of queries that DO
// succeed stays bounded — overload never turns into unbounded latency or
// silent drops.
func ServeLoad(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	// AllReplicated, as in the resilience soak: full redundancy keeps a
	// tripped node recoverable, so the sweep measures the serving layer's
	// overload and deadline behavior, not unrecoverable data loss (that
	// is the SD partition-lost property, tested elsewhere).
	vs, err := TPCHVariants(t, p.Parts)
	if err != nil {
		return nil, err
	}
	v := vs["AllReplicated"]
	r := &Report{
		ID:    "serve",
		Title: "Multi-tenant serving: latency quantiles per health regime",
		Columns: []string{
			"qps", "ok", "rejected", "deadline", "failed",
			"p50_ms", "p99_ms", "p999_ms", "retries", "cache_hit",
		},
	}
	for _, regime := range serveRegimes {
		// A fresh materialization and server per regime: breaker state,
		// budgets and caches must not leak across regimes.
		m, err := Materialize(v, t.DB)
		if err != nil {
			return nil, err
		}
		s, err := newServeServer(p, t, m, v, regime)
		if err != nil {
			return nil, err
		}
		// Six clients over six slots: the healthy regime runs at capacity
		// without queueing collapse, so most queries beat their deadlines;
		// the storm inflates service times past the tighter deadlines
		// instead. Every submission carries a deadline — which is what
		// bounds the p99 of successes even under the storm: the SLO
		// contract, made structural.
		lp := serveLoadParams{
			Seed: p.Seed, Workers: 6, Queries: 25,
			Pace:     time.Millisecond,
			Deadline: []time.Duration{1500 * time.Millisecond, 800 * time.Millisecond, 400 * time.Millisecond, 150 * time.Millisecond},
			Regime:   regime,
		}
		out, err := runServeLoad(s, lp)
		if cerr := s.Close(context.Background()); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, fmt.Errorf("regime %s: %w", regime.name, err)
		}
		met := out.Metrics
		qps := float64(met.Submitted) / out.Elapsed.Seconds()
		hitRate := 0.0
		if met.PlanCacheHits+met.PlanCacheMisses > 0 {
			hitRate = float64(met.PlanCacheHits) / float64(met.PlanCacheHits+met.PlanCacheMisses)
		}
		r.Add(regime.name,
			qps,
			float64(met.Completed),
			float64(out.Rejected),
			float64(met.DeadlineExceeded),
			float64(met.Failed),
			float64(met.Latency.P50.Microseconds())/1000,
			float64(met.Latency.P99.Microseconds())/1000,
			float64(met.Latency.P999.Microseconds())/1000,
			float64(met.Retries),
			hitRate,
		)
	}
	r.Notes = append(r.Notes,
		"graceful degradation: storm rejections+deadline kills rise vs healthy; success p99 stays bounded by the deadline mix",
		"every failure is typed (quota/shed/queue/closed/deadline/fault); untyped failures abort the run",
	)
	return r, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pref/internal/bulkload"
	"pref/internal/engine"
	"pref/internal/serve"
	"pref/internal/tpch"
	"pref/internal/value"
)

// passOrder is the query order of one stream's pass: a permutation of
// the workload's mix seeded by (seed, stream, pass), as in the TPC-H
// throughput test.
func passOrder(seed int64, stream, pass, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919 + int64(pass))).Perm(n)
}

// sample is one served query.
type sample struct {
	query string
	lat   time.Duration // client wall time of the whole call
	open  time.Duration // Server.Stream (traced runs only)
	drain time.Duration // Stream.Drain (traced runs only)
	stats engine.Stats
}

// loadOut is what one measured window produced.
type loadOut struct {
	samples []sample
	elapsed time.Duration
	// attempted and failed count queries and commits; mismatches are
	// served results the oracle rejected (also counted in failed).
	attempted, failed, mismatches int
	firstErr                      error
	writer                        writerOut
}

func (o *loadOut) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// runStreams drives the workload's closed-loop read streams for dur. Each
// stream submits its next query only after the previous one returned. A
// non-nil recorder traces every query as Stream + Drain spans; otherwise
// queries go through Server.Submit. passBase offsets the pass numbers so
// consecutive windows continue the permutation sequence.
func runStreams(f *fixture, orc *oracle, seed int64, passBase int, dur time.Duration, rec *recorder) *loadOut {
	w := f.w
	var mu sync.Mutex
	out := &loadOut{}
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < w.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var local []sample
			var errs []error
			attempted, mismatches := 0, 0
		passes:
			for pass := passBase; ; pass++ {
				for _, qi := range passOrder(seed, s, pass, len(w.queries)) {
					if !time.Now().Before(end) {
						break passes
					}
					q := w.queries[qi]
					attempted++
					smp, rows, err := serveOne(f.srv, q, rec)
					if err != nil {
						errs = append(errs, fmt.Errorf("%s: %w", q, err))
						continue
					}
					if err := orc.check(q, rows); err != nil {
						mismatches++
						errs = append(errs, err)
						continue
					}
					local = append(local, smp)
				}
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.attempted += attempted
			out.mismatches += mismatches
			for _, err := range errs {
				out.fail(err)
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// serveOne runs one query through the server.
func serveOne(srv *serve.Server, q string, rec *recorder) (sample, []value.Tuple, error) {
	ctx := context.Background()
	if rec == nil {
		t0 := time.Now()
		resp, err := srv.Submit(ctx, tenant, q)
		if err != nil {
			return sample{}, nil, err
		}
		return sample{query: q, lat: time.Since(t0), stats: resp.Stats}, resp.Rows, nil
	}
	root := rec.start("query", nil)
	t0 := time.Now()
	sp := rec.start("serve.open", root)
	st, err := srv.Stream(ctx, tenant, q)
	sp.end()
	t1 := time.Now()
	if err != nil {
		root.end()
		return sample{}, nil, err
	}
	sp = rec.start("serve.drain", root)
	resp, err := st.Drain()
	sp.end()
	t2 := time.Now()
	root.end()
	if err != nil {
		return sample{}, nil, err
	}
	return sample{query: q, lat: t2.Sub(t0), open: t1.Sub(t0), drain: t2.Sub(t1),
		stats: resp.Stats}, resp.Rows, nil
}

// writeBatch is one bulkload commit of the htap writer.
type writeBatch []bulkload.Op

// makeWrites generates n commits that alternate one new ORDERS row and
// its four LINEITEM rows. Keys lie above the generated maximum and every
// date falls after 1998-10-01, outside each read query's predicate
// window, so the expected rows of Q1, Q3 and Q6 stay those of epoch 0.
// Dictionary codes are looked up, never interned, so the writer does not
// mutate the catalog the readers plan against.
func makeWrites(t *tpch.TPCH, seed int64, n int) ([]writeBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	db := t.DB
	code := func(tbl, col, s string) (int64, error) {
		c, ok := db.Schema.Table(tbl).Dict(col).Lookup(s)
		if !ok {
			return 0, fmt.Errorf("writer: %s.%s has no code for %q", tbl, col, s)
		}
		return c, nil
	}
	var maxKey int64
	for _, r := range db.Tables["orders"].Rows {
		if r[0] > maxKey {
			maxKey = r[0]
		}
	}
	customers := db.Tables["customer"].Rows
	partsupp := db.Tables["partsupp"].Rows
	strs := []struct{ tbl, col, s string }{
		{"orders", "orderstatus", "O"}, {"orders", "orderpriority", "3-MEDIUM"},
		{"lineitem", "returnflag", "N"}, {"lineitem", "linestatus", "O"},
		{"lineitem", "shipinstruct", "NONE"}, {"lineitem", "shipmode", "MAIL"},
		{"lineitem", "comment", "lineitem comment"},
	}
	codes := make([]int64, len(strs))
	for i, s := range strs {
		c, err := code(s.tbl, s.col, s.s)
		if err != nil {
			return nil, err
		}
		codes[i] = c
	}
	// Reuse an existing clerk and comment so no new dictionary entries
	// are needed.
	anyOrder := db.Tables["orders"].Rows[0]
	clerk, comment := anyOrder[6], anyOrder[8]
	lateDate := value.FromDate(1998, 10, 1)

	out := make([]writeBatch, 0, n)
	for i := 0; len(out) < n; i++ {
		key := maxKey + 1 + int64(i)
		odate := lateDate + rng.Int63n(60)
		cust := customers[rng.Intn(len(customers))][0]
		var lines []value.Tuple
		var total int64
		for ln := 1; ln <= 4; ln++ {
			ps := partsupp[rng.Intn(len(partsupp))]
			qty := int64(1 + rng.Intn(50))
			price := value.FromMoney(float64(qty) * float64(900+rng.Intn(200)) / 10)
			disc := int64(rng.Intn(11))
			ship := odate + 1 + rng.Int63n(60)
			lines = append(lines, value.Tuple{
				key, ps[0], ps[1], int64(ln), qty, price, disc, int64(rng.Intn(9)),
				codes[2], codes[3], ship, odate + 30 + rng.Int63n(61), ship + 1 + rng.Int63n(30),
				codes[4], codes[5], codes[6],
			})
			total += price * (100 - disc) / 100
		}
		out = append(out, writeBatch{bulkload.Insert("orders", value.Tuple{
			key, cust, codes[0], total, odate, codes[1], clerk, 0, comment,
		})})
		if len(out) == n {
			break
		}
		li := make(writeBatch, len(lines))
		for j, row := range lines {
			li[j] = bulkload.Insert("lineitem", row)
		}
		out = append(out, li)
	}
	return out, nil
}

// writer is the htap workload's open-loop write generator: commit i of a
// window falls due at start + i/hz whether or not earlier commits have
// returned. One goroutine sends, because a Loader is single-writer; a
// slow commit therefore delays later sends, and that delay is reported
// as lag instead of being hidden.
type writer struct {
	loader  *bulkload.Loader
	batches []writeBatch
	next    int
	hz      float64
}

// writerOut is one window of the writer.
type writerOut struct {
	due, sent, failed int
	commit            []time.Duration // scheduled send → Apply returned
	apply             []time.Duration // Apply call alone
	lag               []time.Duration // scheduled send → actual send
	firstErr          error
}

// missed counts commits that fell due in the window but were not sent.
func (o writerOut) missed() int { return max(o.due-o.sent, 0) }

// run sends commits on schedule until stop is closed.
func (wr *writer) run(stop <-chan struct{}, rec *recorder) writerOut {
	var out writerOut
	interval := time.Duration(float64(time.Second) / wr.hz)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				out.due = dueBy(time.Since(start), interval)
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				out.due = dueBy(time.Since(start), interval)
				return out
			default:
			}
		}
		if wr.next >= len(wr.batches) {
			// Out of generated commits: everything further is missed.
			<-stop
			out.due = dueBy(time.Since(start), interval)
			return out
		}
		sent := time.Now()
		sp := rec.start("bulkload.apply", nil)
		_, err := wr.loader.Apply(wr.batches[wr.next]...)
		sp.end()
		done := time.Now()
		wr.next++
		out.sent++
		out.lag = append(out.lag, sent.Sub(due))
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		out.commit = append(out.commit, done.Sub(due))
		out.apply = append(out.apply, done.Sub(sent))
	}
}

// dueBy counts the commits of a window that ended after elapsed and were
// due at least one interval before its end: the commit due last may still
// be legitimately in flight when the window stops.
func dueBy(elapsed, interval time.Duration) int {
	if elapsed < interval {
		return 0
	}
	return int(elapsed / interval)
}

// runWindow runs the read streams for dur with the writer (if any)
// sending beside them.
func runWindow(f *fixture, orc *oracle, wr *writer, seed int64, passBase int, dur time.Duration, rec *recorder) *loadOut {
	if wr == nil {
		return runStreams(f, orc, seed, passBase, dur, rec)
	}
	stop := make(chan struct{})
	done := make(chan writerOut, 1)
	go func() { done <- wr.run(stop, rec) }()
	out := runStreams(f, orc, seed, passBase, dur, rec)
	close(stop)
	out.writer = <-done
	out.attempted += out.writer.sent
	for i := 0; i < out.writer.failed; i++ {
		out.fail(fmt.Errorf("writer: %w", out.writer.firstErr))
	}
	return out
}

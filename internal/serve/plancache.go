package serve

import (
	"sync"
	"time"

	"pref/internal/plan"
)

// planCache memoizes §2.2 rewrites across submissions, keyed on the
// prepared query's name. The rewrite is pure in (query, design, plan
// options), and a Server fixes the design and the options for its whole
// life, so the name is the whole key. Data epochs do not enter it: a plan
// says how to run the query, not which snapshot to read, and every
// execution pins the latest published epoch on its own.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*plan.Rewritten
	hits    int64
	misses  int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*plan.Rewritten)}
}

// get returns the cached rewrite for the query, if present.
func (c *planCache) get(query string) (*plan.Rewritten, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rw, ok := c.entries[query]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rw, ok
}

// put stores the rewrite of a query.
func (c *planCache) put(query string, rw *plan.Rewritten) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[query] = rw
}

// stats reports cumulative hit/miss counts and the live entry count.
func (c *planCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// costTable prices queries for the shedder: an EWMA of observed execution
// latency per query under the server's design. Pricing knowledge survives
// write-path publishes, so the shedder does not forget which queries are
// expensive every time data changes.
type costTable struct {
	mu    sync.Mutex
	costs map[string]time.Duration
}

func newCostTable() *costTable {
	return &costTable{costs: make(map[string]time.Duration)}
}

// costEWMAAlpha weights a new latency sample into the per-query price.
const costEWMAAlpha = 0.3

// price returns the current priced cost (0 = never executed).
func (t *costTable) price(query string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.costs[query]
}

// observe feeds one execution latency into the query's price.
func (t *costTable) observe(query string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.costs[query]; ok {
		t.costs[query] = cur + time.Duration(costEWMAAlpha*float64(d-cur))
	} else {
		t.costs[query] = d
	}
}

package engine

import (
	"fmt"
	"math"
	"time"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// aggState is the accumulator of one aggregate for one group.
type aggState struct {
	isum     float64 // sum over int-encoded values
	fsum     float64 // sum over float-encoded values
	cnt      int64   // non-null inputs
	min      int64
	max      int64
	fmin     float64
	fmax     float64
	seen     bool
	distinct map[int64]struct{} // COUNT(DISTINCT) values
}

func (s *aggState) add(v int64, isFloat bool) {
	if v == plan.Null {
		return
	}
	s.cnt++
	if isFloat {
		f := value.ToFloat(v)
		s.fsum += f
		if !s.seen || f < s.fmin {
			s.fmin = f
		}
		if !s.seen || f > s.fmax {
			s.fmax = f
		}
	} else {
		s.isum += float64(v)
		if !s.seen || v < s.min {
			s.min = v
		}
		if !s.seen || v > s.max {
			s.max = v
		}
	}
	s.seen = true
}

// groupAcc accumulates all aggregates for one group key.
type groupAcc struct {
	key    value.Tuple // group column values
	states []aggState
}

// aggPlanInfo pre-binds an aggregation against its input schema: the row
// engine binds each argument to a closure (argFns), the vectorized engine
// compiles it to the IR batch.Project evaluates (args).
type aggPlanInfo struct {
	groupIdx []int
	argFns   []func(value.Tuple) int64
	args     []*plan.VExpr
	isFloat  []bool
	aggs     []plan.AggExpr
}

func bindAggs(groupBy []string, aggs []plan.AggExpr, sch plan.Schema, vec bool) (*aggPlanInfo, error) {
	info := &aggPlanInfo{aggs: aggs}
	for _, g := range groupBy {
		i, err := sch.IndexOf(g)
		if err != nil {
			return nil, err
		}
		info.groupIdx = append(info.groupIdx, i)
	}
	for _, a := range aggs {
		info.isFloat = append(info.isFloat, a.Arg != nil && a.Arg.Kind(sch) == value.Float)
		if a.Arg == nil {
			if a.Fn != plan.CountFn {
				return nil, fmt.Errorf("engine: aggregate %s(%s) has no argument", a.Fn, a.As)
			}
			info.argFns = append(info.argFns, nil)
			info.args = append(info.args, nil)
			continue
		}
		if vec {
			e, err := plan.CompileExpr(a.Arg, sch)
			if err != nil {
				return nil, err
			}
			info.args = append(info.args, e)
			continue
		}
		f, err := a.Arg.Bind(sch)
		if err != nil {
			return nil, err
		}
		info.argFns = append(info.argFns, f)
	}
	return info, nil
}

// accumulate groups the rows of one partition.
func (info *aggPlanInfo) accumulate(rows []value.Tuple) map[value.Key]*groupAcc {
	groups := make(map[value.Key]*groupAcc)
	for _, r := range rows {
		k := value.MakeKey(r, info.groupIdx)
		g, ok := groups[k]
		if !ok {
			key := make(value.Tuple, len(info.groupIdx))
			for i, j := range info.groupIdx {
				key[i] = r[j]
			}
			g = &groupAcc{key: key, states: make([]aggState, len(info.aggs))}
			groups[k] = g
		}
		for i, a := range info.aggs {
			if a.Fn == plan.CountFn && a.Arg == nil {
				g.states[i].cnt++ // COUNT(*)
				g.states[i].seen = true
				continue
			}
			if a.Fn == plan.CountDistinctFn {
				v := info.argFns[i](r)
				if v != plan.Null {
					if g.states[i].distinct == nil {
						g.states[i].distinct = map[int64]struct{}{}
					}
					g.states[i].distinct[v] = struct{}{}
				}
				continue
			}
			g.states[i].add(info.argFns[i](r), info.isFloat[i])
		}
	}
	return groups
}

// finalValue renders the final output of one aggregate.
func finalValue(a plan.AggExpr, s *aggState, isFloat bool) int64 {
	switch a.Fn {
	case plan.CountFn:
		return s.cnt
	case plan.CountDistinctFn:
		return int64(len(s.distinct))
	case plan.SumFn:
		if s.cnt == 0 {
			return plan.Null
		}
		if isFloat {
			return value.FromFloat(s.fsum)
		}
		return int64(math.Round(s.isum))
	case plan.AvgFn:
		if s.cnt == 0 {
			return plan.Null
		}
		if isFloat {
			return value.FromFloat(s.fsum / float64(s.cnt))
		}
		return value.FromFloat(s.isum / float64(s.cnt))
	case plan.MinFn:
		if !s.seen {
			return plan.Null
		}
		if isFloat {
			return value.FromFloat(s.fmin)
		}
		return s.min
	case plan.MaxFn:
		if !s.seen {
			return plan.Null
		}
		if isFloat {
			return value.FromFloat(s.fmax)
		}
		return s.max
	default:
		return plan.Null
	}
}

// appendAggRow renders one group's aggregates after its key: each
// aggregate's final value or, for a partial aggregation, its mergeable
// state (AVG carries its sum and count; the other functions carry their
// combinable value).
func appendAggRow(row value.Tuple, info *aggPlanInfo, st []aggState, partial bool) value.Tuple {
	for i, a := range info.aggs {
		s := &st[i]
		if partial && a.Fn == plan.AvgFn {
			sum := s.isum
			if info.isFloat[i] {
				sum = s.fsum
			}
			row = append(row, value.FromFloat(sum), s.cnt)
			continue
		}
		row = append(row, finalValue(a, s, info.isFloat[i]))
	}
	return row
}

// aggRows renders one partition's groups. A global aggregation over no
// rows yields its identity row (COUNT()=0) when identity is set.
func aggRows(info *aggPlanInfo, groups map[value.Key]*groupAcc, partial, identity bool) []value.Tuple {
	if len(info.groupIdx) == 0 && len(groups) == 0 && identity {
		groups[value.Key("")] = &groupAcc{states: make([]aggState, len(info.aggs))}
	}
	rows := make([]value.Tuple, 0, len(groups))
	for _, g := range groups {
		row := append(make(value.Tuple, 0, len(g.key)+len(info.aggs)), g.key...)
		rows = append(rows, appendAggRow(row, info, g.states, partial))
	}
	return rows
}

// identityRow reports whether partition p of a global aggregation yields
// the identity row over an empty input. Over a Gathered input only
// partition 0 is ever consumed downstream, so the row must not be
// fabricated on the other partitions (phantom rows that inflate work and
// break trace row conservation). A partial aggregation always contributes
// one, so the final merge still sees COUNT=0.
func (ex *executor) identityRow(child plan.Node, partial bool) func(p int) bool {
	prop := ex.rw.Props[child]
	gathered := !partial && prop != nil && prop.Gathered
	return func(p int) bool { return p == 0 || !gathered }
}

func (ex *executor) evalAggregate(n *plan.AggregateNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindAggregate)
	return ex.aggregateRows(top, n.Child, n.GroupBy, n.Aggs, false)
}

// evalPartialAgg emits per-partition partial states (see appendAggRow).
func (ex *executor) evalPartialAgg(n *plan.PartialAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindPartialAgg)
	return ex.aggregateRows(top, n.Child, n.GroupBy, n.Aggs, true)
}

// aggregateRows is the row engine's Aggregate and PartialAgg: every
// partition groups its own rows.
func (ex *executor) aggregateRows(top *trace.Op, child plan.Node, groupBy []string, aggs []plan.AggExpr, partial bool) ([][]value.Tuple, error) {
	in, err := ex.eval(child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[child]
	identity := ex.identityRow(child, partial)
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		info, err := bindAggs(groupBy, aggs, sch, false)
		if err != nil {
			return nil, 0, err
		}
		rows := aggRows(info, info.accumulate(in[p]), partial, identity(p))
		return rows, len(rows), nil
	})
}

// evalFinalAgg merges partial states (only the coordinator partition has
// rows after the preceding Gather).
//
// lint:ship-boundary coordinator-side merge: reads the gathered partials
// from, and emits the merged rows on, the coordinator partition.
func (ex *executor) evalFinalAgg(n *plan.FinalAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindFinalAgg)
	in, err := ex.eval(n.Child)
	if err != nil {
		return nil, err
	}
	rows, err := ex.finalAgg(top, n, in[0])
	if err != nil {
		return nil, err
	}
	out := make([][]value.Tuple, ex.n)
	out[0] = rows
	return out, nil
}

// finalAgg merges the gathered partials. The merge is a single work unit
// on the coordinator node and runs under the same fault model as the
// fan-out operators.
//
// lint:ship-boundary coordinator-side merge: consumes every partition's
// partials on the query goroutine; its input exchange already metered them.
func (ex *executor) finalAgg(top *trace.Op, n *plan.FinalAggNode, partials []value.Tuple) ([]value.Tuple, error) {
	// The merge reads only the coordinator partition (everything is there
	// after the preceding Gather).
	top.AddIn(ex.execDst[0], len(partials))
	sch := ex.rw.Schemas[n.Child]
	op := ex.nextOp()
	en := ex.execDst[0]
	start := time.Now()
	rows, work, err := runUnit(ex, ex.ctx, top, op, 0, en, func(int) ([]value.Tuple, int, error) {
		rs, err := mergePartials(n, sch, partials)
		if err != nil {
			return nil, 0, err
		}
		return rs, len(rs), nil
	})
	top.AddWall(en, time.Since(start))
	if err != nil {
		return nil, err
	}
	top.AddOut(en, len(rows))
	top.AddWork(en, work)
	if en != 0 {
		ex.stats.Failovers++
		top.AddFailover(en)
		ex.work(en, work)
	} else {
		ex.work(0, work)
	}
	return rows, nil
}

// Columnar aggregation (the vectorized engine's Aggregate, PartialAgg and
// FinalAgg). A partition's batches fold into dense per-group accumulators:
// batch.Groups maps each live row to a group id, batch.Project evaluates
// the compiled arguments once per batch, and one type-specialized loop per
// aggregate walks the group-id vector. Rows fold in storage order, batch
// by batch, so each group accumulates its values in exactly the order the
// row engine's accumulate does — float sums stay bit-identical.

// colAgg is one partition's columnar aggregation state.
type colAgg struct {
	info   *aggPlanInfo
	proj   []*plan.VExpr // the non-nil arguments, projected once per batch
	argCol []int         // aggregate i's column in the projected batch; -1 for COUNT(*)
	groups *batch.Groups
	// states holds group g's accumulators at states[g*na:(g+1)*na], na the
	// number of aggregates — the per-group layout the row engine's
	// groupAcc.states has.
	states []aggState
	gid    []int32 // group id per live row of the current batch
}

func newColAgg(info *aggPlanInfo) *colAgg {
	c := &colAgg{
		info:   info,
		argCol: make([]int, len(info.aggs)),
		groups: batch.NewGroups(info.groupIdx),
	}
	for i, e := range info.args {
		c.argCol[i] = -1
		if e == nil {
			continue
		}
		c.argCol[i] = len(c.proj)
		// Aggregates over the same column (Q1's SUM and AVG of quantity)
		// share one projected column.
		for j, prev := range c.proj {
			if e.Op == plan.VCol && prev.Op == plan.VCol && prev.Col == e.Col {
				c.argCol[i] = j
			}
		}
		if c.argCol[i] == len(c.proj) {
			c.proj = append(c.proj, e)
		}
	}
	return c
}

// grow extends the accumulators to ng groups.
func (c *colAgg) grow(ng int) {
	if n := ng * len(c.info.aggs); len(c.states) < n {
		c.states = append(c.states, make([]aggState, n-len(c.states))...)
	}
}

// add folds every live row of b into its group's accumulators.
func (c *colAgg) add(b *batch.Batch) {
	if b.Len() == 0 {
		return
	}
	c.gid = c.groups.Assign(c.gid[:0], b)
	c.grow(c.groups.Len())
	if len(c.proj) == 0 {
		c.fold(nil)
		return
	}
	args := batch.Project(b, c.proj)
	c.fold(args)
	args.Release()
}

// fold runs each aggregate's loop over the current group-id vector; args
// holds the projected argument columns.
func (c *colAgg) fold(args *batch.Batch) {
	gid := c.gid
	na := len(c.info.aggs)
	for i, a := range c.info.aggs {
		// st[g*na] is aggregate i of group g.
		st := c.states[i:]
		if c.argCol[i] < 0 {
			for _, g := range gid {
				st[int(g)*na].cnt++ // COUNT(*)
			}
			continue
		}
		vals := args.Cols[c.argCol[i]][:len(gid)]
		isFloat := c.info.isFloat[i]
		switch {
		case a.Fn == plan.CountFn:
			for k, g := range gid {
				if vals[k] != plan.Null {
					st[int(g)*na].cnt++
				}
			}
		case a.Fn == plan.CountDistinctFn:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					if s.distinct == nil {
						s.distinct = map[int64]struct{}{}
					}
					s.distinct[v] = struct{}{}
				}
			}
		case (a.Fn == plan.SumFn || a.Fn == plan.AvgFn) && isFloat:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					s.cnt++
					s.fsum += value.ToFloat(v)
				}
			}
		case a.Fn == plan.SumFn || a.Fn == plan.AvgFn:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					s.cnt++
					s.isum += float64(v)
				}
			}
		case a.Fn == plan.MinFn && isFloat:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					if f := value.ToFloat(v); !s.seen || f < s.fmin {
						s.fmin = f
					}
					s.seen = true
				}
			}
		case a.Fn == plan.MinFn:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					if !s.seen || v < s.min {
						s.min = v
					}
					s.seen = true
				}
			}
		case a.Fn == plan.MaxFn && isFloat:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					if f := value.ToFloat(v); !s.seen || f > s.fmax {
						s.fmax = f
					}
					s.seen = true
				}
			}
		case a.Fn == plan.MaxFn:
			for k, g := range gid {
				if v := vals[k]; v != plan.Null {
					s := &st[int(g)*na]
					if !s.seen || v > s.max {
						s.max = v
					}
					s.seen = true
				}
			}
		}
	}
}

// emit writes one output row per group, in first-seen order, plus the
// identity row of a global aggregation over no rows when identity is set.
//
// lint:batch-owner the returned batches are fresh writer output owned by
// the caller
func (c *colAgg) emit(width int, partial, identity bool) []*batch.Batch {
	ng := c.groups.Len()
	if ng == 0 && len(c.info.groupIdx) == 0 && identity {
		ng = 1
		c.grow(1)
	}
	w := batch.NewWriter(width)
	na := len(c.info.aggs)
	row := make(value.Tuple, 0, width)
	for g := 0; g < ng; g++ {
		row = row[:0]
		for j := range c.info.groupIdx {
			row = append(row, c.groups.Key(j, g))
		}
		w.AppendTuple(appendAggRow(row, c.info, c.states[g*na:(g+1)*na], partial))
	}
	return w.Finish()
}

// lint:batch-owner the returned batch lists transfer to the caller
func (ex *executor) evalAggregateVec(n *plan.AggregateNode) (vparts, error) {
	top := ex.tb.Begin(n, trace.KindAggregate)
	return ex.aggregateVec(top, n, n.Child, n.GroupBy, n.Aggs, false)
}

// lint:batch-owner the returned batch lists transfer to the caller
func (ex *executor) evalPartialAggVec(n *plan.PartialAggNode) (vparts, error) {
	top := ex.tb.Begin(n, trace.KindPartialAgg)
	return ex.aggregateVec(top, n, n.Child, n.GroupBy, n.Aggs, true)
}

// aggregateVec is aggregateRows on batches, charge for charge.
//
// lint:batch-owner the returned batch lists transfer to the caller
func (ex *executor) aggregateVec(top *trace.Op, n, child plan.Node, groupBy []string, aggs []plan.AggExpr, partial bool) (vparts, error) {
	in, err := ex.evalVec(child)
	if err != nil {
		return nil, err
	}
	ex.addInputsVec(top, in)
	info, err := bindAggs(groupBy, aggs, ex.rw.Schemas[child], true)
	if err != nil {
		releaseParts(in) // bind failed: the consumed input is dead
		return nil, err
	}
	width := len(ex.rw.Schemas[n])
	identity := ex.identityRow(child, partial)
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		c := newColAgg(info)
		for _, b := range in[p] {
			// A partition's fold is the longest stretch of a local
			// aggregation: give up between batches once the query is
			// cancelled or past its deadline.
			if err := ex.ctx.Err(); err != nil {
				return nil, 0, err
			}
			c.add(b)
		}
		bs := c.emit(width, partial, identity(p))
		return bs, batch.Rows(bs), nil
	})
	releaseParts(in) // aggregate output is fresh: input batches are dead
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalFinalAggVec merges the gathered partials — at most one row per
// partition — through the row engine's mergePartials and hands the merged
// rows on as batches.
//
// lint:ship-boundary coordinator-side merge: reads the gathered partials
// from, and emits the merged rows on, the coordinator partition.
//
// lint:batch-owner the returned batch lists transfer to the caller
func (ex *executor) evalFinalAggVec(n *plan.FinalAggNode) (vparts, error) {
	top := ex.tb.Begin(n, trace.KindFinalAgg)
	in, err := ex.evalVec(n.Child)
	if err != nil {
		return nil, err
	}
	partials := batch.AppendRows(nil, in[0])
	releaseParts(in) // the partials were copied out: input batches are dead
	rows, err := ex.finalAgg(top, n, partials)
	if err != nil {
		return nil, err
	}
	w := batch.NewWriter(len(ex.rw.Schemas[n]))
	for _, r := range rows {
		w.AppendTuple(r)
	}
	out := make(vparts, ex.n)
	out[0] = w.Finish()
	return out, nil
}

// mergePartials combines partial-state rows into final aggregate rows.
func mergePartials(n *plan.FinalAggNode, sch plan.Schema, partials []value.Tuple) ([]value.Tuple, error) {
	type finalAcc struct {
		key    value.Tuple
		isum   []float64
		fsum   []float64
		cnt    []int64
		minv   []int64
		maxv   []int64
		fminv  []float64
		fmaxv  []float64
		seen   []bool
		isFlt  []bool
		avgSum []float64
		avgCnt []int64
	}
	ng := len(n.GroupBy)
	groupIdx := make([]int, ng)
	for i := range n.GroupBy {
		groupIdx[i] = i // partial schema leads with group columns
	}

	// Map each aggregate to its state column(s) in the partial schema.
	colOf := make([]int, len(n.Aggs))
	col := ng
	isFloatCol := make([]bool, len(n.Aggs))
	for i, a := range n.Aggs {
		colOf[i] = col
		if a.Fn == plan.AvgFn {
			col += 2
		} else {
			col++
		}
		isFloatCol[i] = sch[colOf[i]].Kind == value.Float
	}

	accs := map[value.Key]*finalAcc{}
	for _, r := range partials {
		k := value.MakeKey(r, groupIdx)
		acc, ok := accs[k]
		if !ok {
			acc = &finalAcc{
				key:  append(value.Tuple{}, r[:ng]...),
				isum: make([]float64, len(n.Aggs)), fsum: make([]float64, len(n.Aggs)),
				cnt:  make([]int64, len(n.Aggs)),
				minv: make([]int64, len(n.Aggs)), maxv: make([]int64, len(n.Aggs)),
				fminv: make([]float64, len(n.Aggs)), fmaxv: make([]float64, len(n.Aggs)),
				seen: make([]bool, len(n.Aggs)), avgSum: make([]float64, len(n.Aggs)),
				avgCnt: make([]int64, len(n.Aggs)),
			}
			accs[k] = acc
		}
		for i, a := range n.Aggs {
			v := r[colOf[i]]
			switch a.Fn {
			case plan.CountFn:
				acc.cnt[i] += v
			case plan.SumFn:
				if v == plan.Null {
					continue
				}
				if isFloatCol[i] {
					acc.fsum[i] += value.ToFloat(v)
				} else {
					acc.isum[i] += float64(v)
				}
				acc.seen[i] = true
			case plan.AvgFn:
				acc.avgSum[i] += value.ToFloat(v)
				acc.avgCnt[i] += r[colOf[i]+1]
			case plan.MinFn:
				if v == plan.Null {
					continue
				}
				if isFloatCol[i] {
					f := value.ToFloat(v)
					if !acc.seen[i] || f < acc.fminv[i] {
						acc.fminv[i] = f
					}
				} else if !acc.seen[i] || v < acc.minv[i] {
					acc.minv[i] = v
				}
				acc.seen[i] = true
			case plan.MaxFn:
				if v == plan.Null {
					continue
				}
				if isFloatCol[i] {
					f := value.ToFloat(v)
					if !acc.seen[i] || f > acc.fmaxv[i] {
						acc.fmaxv[i] = f
					}
				} else if !acc.seen[i] || v > acc.maxv[i] {
					acc.maxv[i] = v
				}
				acc.seen[i] = true
			}
		}
	}
	// Global aggregation always yields exactly one row.
	if ng == 0 && len(accs) == 0 {
		accs[value.Key("")] = &finalAcc{
			isum: make([]float64, len(n.Aggs)), fsum: make([]float64, len(n.Aggs)),
			cnt: make([]int64, len(n.Aggs)), minv: make([]int64, len(n.Aggs)),
			maxv: make([]int64, len(n.Aggs)), fminv: make([]float64, len(n.Aggs)),
			fmaxv: make([]float64, len(n.Aggs)), seen: make([]bool, len(n.Aggs)),
			avgSum: make([]float64, len(n.Aggs)), avgCnt: make([]int64, len(n.Aggs)),
		}
	}

	var rows []value.Tuple
	for _, acc := range accs {
		row := append(value.Tuple{}, acc.key...)
		for i, a := range n.Aggs {
			switch a.Fn {
			case plan.CountFn:
				row = append(row, acc.cnt[i])
			case plan.SumFn:
				if !acc.seen[i] {
					row = append(row, plan.Null)
				} else if isFloatCol[i] {
					row = append(row, value.FromFloat(acc.fsum[i]))
				} else {
					row = append(row, int64(math.Round(acc.isum[i])))
				}
			case plan.AvgFn:
				if acc.avgCnt[i] == 0 {
					row = append(row, plan.Null)
				} else {
					row = append(row, value.FromFloat(acc.avgSum[i]/float64(acc.avgCnt[i])))
				}
			case plan.MinFn:
				if !acc.seen[i] {
					row = append(row, plan.Null)
				} else if isFloatCol[i] {
					row = append(row, value.FromFloat(acc.fminv[i]))
				} else {
					row = append(row, acc.minv[i])
				}
			case plan.MaxFn:
				if !acc.seen[i] {
					row = append(row, plan.Null)
				} else if isFloatCol[i] {
					row = append(row, value.FromFloat(acc.fmaxv[i]))
				} else {
					row = append(row, acc.maxv[i])
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

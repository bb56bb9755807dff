// Command perfbench is the repository benchmark: it serves named TPC-H
// workloads through internal/serve, checks every result against an
// oracle, and prints each end-to-end metric by name and unit. With
// -trace 1 it instead runs the workload traced and prints the per-layer
// metrics. See README.md in this directory.
//
//	go run . -workload tpch-sd -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pref/internal/bulkload"
	"pref/internal/engine"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload   string
	dataSeed   int64
	streamSeed int64
	seconds    float64
	trace      bool
}

// setups is how many times a run builds its fixture; setup_s is the
// median build, so one slow build does not move it.
const setups = 5

func main() {
	var (
		cfg   config
		seed  = flag.Int64("seed", 1, "default for -data-seed and -stream-seed")
		trace = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.StringVar(&cfg.workload, "workload", "tpch-sd", "workload: tpch-sd | tpch-hashed | htap-degraded")
	flag.Int64Var(&cfg.dataSeed, "data-seed", 0, "TPC-H generator seed (default -seed)")
	flag.Int64Var(&cfg.streamSeed, "stream-seed", 0, "query-order and writer seed (default -seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["data-seed"] {
		cfg.dataSeed = *seed
	}
	if !set["stream-seed"] {
		cfg.streamSeed = *seed
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line. Progress
// and the human-readable report go to log.
func run(cfg config, log io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(log, "workload %s: variant %s, SF %g, %d partitions, %d stream(s), data seed %d, stream seed %d\n",
		w.name, w.variant, scaleFactor, partitions, w.streams, cfg.dataSeed, cfg.streamSeed)

	orc, err := newOracle(w.queries, cfg.dataSeed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	f, builds, err := setupRepeated(w, cfg.dataSeed, orc, setups, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer f.close()

	var wr *writer
	if w.writeHz > 0 {
		// Enough commits for every window of the run, plus headroom.
		n := int((cfg.seconds+10)*w.writeHz) + 1
		batches, err := makeWrites(f.t, cfg.streamSeed, n)
		if err != nil {
			return nil, err
		}
		wr = &writer{loader: bulkload.NewLoader(f.pdb, f.cfg), batches: batches, hz: w.writeHz}
	}

	if cfg.trace {
		return runTraced(cfg, f, orc, wr, builds, rec, dur, log)
	}
	out := runWindow(f, orc, wr, cfg.streamSeed, 0, dur, nil)
	return endToEnd(f, out, builds, log), nil
}

// endToEnd reports the user-visible metrics of one untraced window.
func endToEnd(f *fixture, out *loadOut, builds []setupTimes, log io.Writer) *result {
	setupS := make([]float64, len(builds))
	for i, s := range builds {
		setupS[i] = s.total().Seconds()
	}
	lat := latenciesMS(out.samples)
	p95 := quantile(lat, 0.95)
	m := map[string]metric{
		"setup_s":                 {median(setupS), "s"},
		"throughput_qps":          {float64(len(out.samples)) / out.elapsed.Seconds(), "1/s"},
		"query_geomean_ms":        {queryGeomean(out.samples), "ms"},
		"query_p95_ms":            {p95, "ms"},
		"peak_rss_mb":             {peakRSSMB(), "MB"},
		"storage_ratio":           {f.storageRatio, "ratio"},
		"shipped_bytes_per_query": {perQueryMean(out.samples, func(s engine.Stats) float64 { return float64(s.BytesShipped) }), "B"},
		"sim_ms_per_query": {perQueryMean(out.samples, func(s engine.Stats) float64 {
			return ms(engine.DefaultCostModel().Simulate(s))
		}), "ms"},
	}
	fmt.Fprintf(log, "setup builds (s): %v\n", roundAll(setupS))
	fmt.Fprintf(log, "queries: %d served in %.2fs, p95 over %d samples with %d beyond it\n",
		len(lat), out.elapsed.Seconds(), len(lat), beyond(lat, p95))
	printQueries(out.samples, log)
	printWriter(out.writer, f.w, log)
	fmt.Fprintf(log, "%-26s %14.6f %s\n", "failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	printMetrics(m, log)
	if out.firstErr != nil {
		fmt.Fprintf(log, "FAILED: %d of %d operations failed (%d oracle mismatches); first: %v\n",
			out.failed, out.attempted, out.mismatches, out.firstErr)
	}
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   m,
	}
}

// printWriter reports the htap writer's commit latencies and whether the
// open-loop generator kept its schedule.
func printWriter(o writerOut, w workload, log io.Writer) {
	if w.writeHz == 0 {
		return
	}
	commit := durationsMS(o.commit)
	lag := durationsMS(o.lag)
	fmt.Fprintf(log, "%-26s %14.4f ms (n=%d)\n", "commit_p50_ms", median(commit), len(commit))
	fmt.Fprintf(log, "%-26s %14.4f ms (n=%d)\n", "commit_p95_ms", quantile(commit, 0.95), len(commit))
	fmt.Fprintf(log, "%-26s %14.4f ms (p50 %.4f)\n", "writer_lag_ms", quantile(lag, 1), median(lag))
	fmt.Fprintf(log, "%-26s %14d of %d due at %.0f/s\n", "writer_missed_commits", o.missed(), o.due, w.writeHz)
	if behind(o, w.writeHz) {
		fmt.Fprintln(log, "WRITER BEHIND: the open-loop writer did not keep its schedule; commit figures of this run are not comparable")
	}
}

// behind reports whether the writer fell behind its schedule: a commit
// that fell due was never sent, or more than one commit in twenty was
// sent over a full interval late.
func behind(o writerOut, hz float64) bool {
	interval := float64(time.Second) / hz
	return o.missed() > 0 || quantile(durationsMS(o.lag), 0.95) > interval/float64(time.Millisecond)
}

// printQueries prints each query's served-latency summary.
func printQueries(samples []sample, log io.Writer) {
	groups := byQuery(samples)
	names := make([]string, 0, len(groups))
	for q := range groups {
		names = append(names, q)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "%-6s %6s %10s %10s %10s\n", "query", "n", "p50_ms", "mean_ms", "p95_ms")
	for _, q := range names {
		lat := latenciesMS(groups[q])
		fmt.Fprintf(log, "%-6s %6d %10.3f %10.3f %10.3f\n", q, len(lat), median(lat), mean(lat), quantile(lat, 0.95))
	}
}

func printMetrics(m map[string]metric, log io.Writer) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-34s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// byQuery groups samples by query name.
func byQuery(samples []sample) map[string][]sample {
	out := map[string][]sample{}
	for _, s := range samples {
		out[s.query] = append(out[s.query], s)
	}
	return out
}

// queryGeomean is the geometric mean, over query names, of each query's
// mean served latency (TPC-H power-test style): every query weighs the
// same whatever its share of the run. The per-query mean, not the median:
// with two streams a light query's latency is bimodal (alone, or beside a
// heavy query), and its median jumps between the modes from run to run.
func queryGeomean(samples []sample) float64 {
	var means []float64
	for _, ss := range byQuery(samples) {
		means = append(means, mean(latenciesMS(ss)))
	}
	return geomean(means)
}

// perQueryMean averages a per-query statistic over each query name, then
// over names, so the figure does not depend on where the run cut the mix.
func perQueryMean(samples []sample, f func(engine.Stats) float64) float64 {
	var means []float64
	for _, ss := range byQuery(samples) {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s.stats)
		}
		means = append(means, mean(xs))
	}
	return mean(means)
}

// Package bench is the repository benchmark: it drives the figure
// engine, the triaged service and the cluster through their public
// functions, checks their outputs, and reports end-to-end and
// per-layer metrics. The program under test is never modified; every
// number here is measured from outside it.
package bench

import (
	"fmt"
	"regexp"
)

// Metric is one reported number: its name, unit, and which direction
// is better.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd lists the metrics an untraced run reports, in output order.
// BENCHMARK.json declares the same list with each metric's bound.
var EndToEnd = []Metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"success_frac", "frac", "higher"},
}

// cpuModules are the repro/internal packages that get their own
// "<module>.cpu_s" row; every other package's self time goes to
// other.cpu_s.
var cpuModules = []string{
	"cache", "replacement", "dram", "core", "flat", "prefetch", "sim", "mem",
	"workload", "experiments", "trace", "service", "obs", "cluster",
}

// PerLayer lists the metrics a traced run reports, in output order.
var PerLayer = perLayer()

func perLayer() []Metric {
	var ms []Metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, Metric{n, unit, better})
		}
	}
	for _, m := range cpuModules {
		add("s", "lower", m+".cpu_s")
	}
	add("s", "lower", "runtime.gc_cpu_s", "runtime.cpu_s", "other.cpu_s", "bench.cpu_total_s")
	add("ns", "lower",
		"cache.l2_ns_per_access", "cache.llc1_ns_per_access", "cache.llc16_ns_per_access",
		"replacement.hawkeye_ns_per_access",
		"dram.simple_ns_per_access", "dram.detailed_ns_per_access",
		"core.triage_ns_per_train", "flat.map_ns_per_op",
		"prefetch.misb_ns_per_train", "prefetch.bo_ns_per_train",
		"workload.chase_ns_per_record", "workload.stride_ns_per_record",
		"sim.cpu_ns_per_instr")
	add("count", "higher", "sim.cells")
	add("Minstr", "higher", "sim.stepped_minstr")
	add("count", "higher", "sim.warm_hits", "sim.warm_misses", "sim.warm_stores")
	add("s", "lower", "experiments.fig05_s", "experiments.fig06_s", "experiments.fig08_s",
		"experiments.fig15_s", "experiments.fig16_s", "experiments.fig17_s")
	add("MB/s", "higher", "trace.encode_mb_per_s", "trace.decode_mb_per_s")
	add("s", "lower", "trace.corpus_build_s")
	add("count", "higher", "trace.replay_jobs")
	add("ms", "lower", "service.submit_ms_p50", "service.queue_wait_ms_p50", "service.queue_wait_ms_p95",
		"service.run_ms_p50", "service.run_ms_p95", "service.store_put_ms_p50", "service.store_put_ms_p95",
		"service.fetch_ms_p50")
	add("count", "higher", "service.fresh", "service.deduped", "service.store_hits")
	add("frac", "higher", "service.store_hit_frac")
	add("count", "lower", "service.rejected", "service.queue_hwm")
	add("count", "higher", "cluster.rpc_count")
	add("count", "lower", "cluster.rpc_failed")
	add("ms", "lower", "cluster.events_ms_p50", "cluster.heartbeat_ms_p50", "cluster.upload_ms_p50",
		"cluster.upload_ms_p95", "cluster.upload_handler_ms_p50")
	add("count", "lower", "cluster.requeued", "cluster.hedged", "cluster.upload_rejected")
	add("MB", "lower", "runtime.alloc_mb")
	add("count", "lower", "runtime.gc_cycles")
	add("MB", "lower", "runtime.heap_live_mb_end")
	add("frac", "lower", "bench.trace_overhead_frac")
	return ms
}

// validName is the metric-name alphabet: letters, digits, '_', '.'
// and '-', starting with a letter or digit, at most 64 characters.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether s is a well-formed metric name.
func ValidName(s string) bool { return validName.MatchString(s) }

// Value is one measured metric as printed in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the result map for the given metric list from vals,
// failing if a metric is missing or a value is not a finite number.
func collect(list []Metric, vals map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(list))
	for _, m := range list {
		if !ValidName(m.Name) {
			return nil, fmt.Errorf("invalid metric name %q", m.Name)
		}
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

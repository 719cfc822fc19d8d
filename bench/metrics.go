package main

import (
	"fmt"
	"sort"
	"strings"
)

// gated is an end-to-end metric with the bound by which it may worsen,
// as a share of the reference median, before a change counts as a
// regression. A metric whose run-to-run spread exceeds its bound is
// demoted to client.*, not loosened.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndMetrics are the gated metrics. Class metrics exist only on
// workloads that issue the class and carry the issue's bounds; the
// metrics in driverEndToEnd exist on every workload and carry bounds
// that two A/A sets on this sandbox agree within even when one of them
// falls into its slow mode (README, A/A).
var endToEndMetrics = []gated{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"oltp_ops_per_s", "1/s", "higher", 0.08},
	{"olap_q_per_s", "1/s", "higher", 0.08},
	{"point_p50_us", "us", "lower", 0.10},
	{"write_p50_us", "us", "lower", 0.10},
	{"sum_p50_us", "us", "lower", 0.10},
	{"group_p50_us", "us", "lower", 0.10},
	{"point_p95_us", "us", "lower", 0.15},
	{"write_p95_us", "us", "lower", 0.15},
	{"sum_p95_us", "us", "lower", 0.15},
	{"fail_share", "ratio", "lower", 0},
	{"heap_after_setup_mib", "MiB", "lower", 0.05},
	{"alloc_kib_per_op", "KiB", "lower", 0.10},
	{"lane0_ops_per_s", "1/s", "higher", 0.20},
	{"lane1_ops_per_s", "1/s", "higher", 0.25},
	{"primary_p95_us", "us", "lower", 0.25},
}

var gatedByName = func() map[string]*gated {
	m := make(map[string]*gated)
	for i := range endToEndMetrics {
		m[endToEndMetrics[i].Name] = &endToEndMetrics[i]
	}
	return m
}()

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists: the
// driver wants every listed metric from every workload and none that can
// read 0, which leaves out the class metrics and fail_share (the result
// line's failed/attempted carries that).
var driverEndToEnd = []string{
	"setup_s", "ops_per_s", "lane0_ops_per_s", "lane1_ops_per_s",
	"primary_p95_us", "heap_after_setup_mib", "alloc_kib_per_op",
}

// layerMetric is a per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerMetrics are the per-layer metrics; a traced run reports all of
// them on every workload, as 0 where the workload does not use the
// layer. None is gated.
var perLayerMetrics = func() (list []layerMetric) {
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			list = append(list, layerMetric{n, unit, better})
		}
	}
	for _, c := range className {
		add("us", "lower", "client."+c+"_p50_us", "client."+c+"_p99_us", "server.http_self_p50_us."+c, "server.exec_self_p50_us."+c)
	}
	add("us", "lower", "client.group_p95_us")
	add("%", "lower", "client.trace_overhead_pct")
	add("ms", "lower", "client.gc_pause_ms_total")
	add("ratio", "higher", "server.cache_hit_share.point", "server.cache_hit_share.sum", "server.cache_hit_share.group")
	add("ratio", "lower", "server.exec_busy_share")
	add("count", "lower", "server.batch.flushes", "server.exec.errors", "server.admission.shed")
	add("count", "higher", "server.batch.preds_per_flush", "server.gather.rows_per_flush")
	add("ratio", "higher", "rescache.hit_share")
	add("ratio", "lower", "rescache.stale_share")
	add("count", "lower", "rescache.evictions")
	add("B", "lower", "rescache.bytes")
	add("ns", "lower", "rescache.lookup_hit_p50_ns", "rescache.put_p50_ns")
	for _, op := range opName {
		add("us", "lower", "core."+op+"_p50_us")
	}
	add("ratio", "lower", "core.scan_contention_ratio")
	add("ms", "lower", "core.merge_ms_mean")
	add("count", "higher", "core.merge_runs", "tx.commits", "tx.versions_pruned")
	add("count", "lower", "core.pending_versions_max", "core.freezes", "tx.conflicts")
	add("us", "lower", "exec.sum_where_p50_us", "exec.group_sum_where_p50_us", "compress.sum_where_p50_us")
	add("ratio", "higher", "compress.ratio", "exec.zonemap.pruned_share", "device.cache.hit_share")
	add("count", "lower", "exec.kernel_calls_per_scan", "exec.groupby.fused.fallbacks", "pool.jobs_submitted", "device.kernels_per_scan", "layout.seals")
	add("count", "higher", "exec.sharedscan.saved_passes")
	add("B", "higher", "exec.zonemap.pruned_bytes_per_scan")
	add("B", "lower", "device.h2d_bytes_per_scan", "device.d2h_bytes_per_scan", "device.cache.resident_bytes")
	add("ms", "lower", "perfmodel.sim_ms_per_scan")
	add("count", "lower", "wal.appends_per_write", "wal.fsyncs_per_write", "wal.flushes_per_write")
	add("count", "higher", "wal.group_size_mean")
	add("B", "lower", "wal.bytes_per_write", "wal.log_bytes_end")
	add("ms", "lower", "wal.checkpoint_ms_mean", "wal.recover_ms")
	add("us", "lower", "wal.append_nosync_p50_us", "wal.append_sync_disk_p50_us")
	return list
}()

var perLayerUnit = func() map[string]string {
	m := make(map[string]string)
	for _, l := range perLayerMetrics {
		m[l.Name] = l.Unit
	}
	return m
}()

func unitOf(name string) string {
	if g := gatedByName[strings.TrimPrefix(name, "client.")]; g != nil {
		return g.Unit
	}
	return perLayerUnit[name]
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the driver computes
// spreads from. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// printSpreads is the A/A report: per workload and metric the median,
// the quartiles and the interquartile range as a share of the median,
// next to the metric's bound. It reports false when a gated metric's
// spread exceeds its bound.
func printSpreads(all [][]*report) bool {
	type key struct{ workload, name string }
	values := map[key][]float64{}
	var order []key
	for _, reports := range all {
		for _, r := range reports {
			for _, m := range r.metrics {
				k := key{m.Workload, m.Name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	ok := true
	fmt.Printf("== A/A over %d repetitions: median, quartiles, (q3-q1)/median against the bound\n", len(all))
	for _, k := range order {
		q1, q2, q3 := quartiles(values[k])
		spread := ratio(q3-q1, q2)
		line := fmt.Sprintf("%-14s %-38s %14.4f [%14.4f, %14.4f] %7.2f%%", k.workload, k.name, q2, q1, q3, spread*100)
		if g := gatedByName[k.name]; g != nil {
			line += fmt.Sprintf("  bound %g%%", g.Bound*100)
			if spread > g.Bound {
				line += "  EXCEEDED"
				ok = false
			}
		}
		fmt.Println(line)
	}
	return ok
}

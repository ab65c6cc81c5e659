package main

import (
	"strings"

	"rhnorec/internal/tm"
)

// layerCounters is a snapshot of the cumulative counters the per-layer
// metrics come from, read through each layer's public API while the
// workers are stopped. Keys ending in "_gauge" are levels, not totals.
type layerCounters map[string]float64

func (c layerCounters) addStats(st *tm.Stats) {
	c["commits"] += float64(st.Commits)
	c["fast_commits"] += float64(st.FastPathCommits)
	c["fallbacks"] += float64(st.Fallbacks)
	c["conflict_aborts"] += float64(st.HTMConflictAborts)
	c["prefix_attempts"] += float64(st.PrefixAttempts)
	c["prefix_commits"] += float64(st.PrefixCommits)
	c["postfix_attempts"] += float64(st.PostfixAttempts)
	c["postfix_commits"] += float64(st.PostfixCommits)
	c["slow_restarts"] += float64(st.SlowPathRestarts)
	c["slow_commits"] += float64(st.SlowPathCommits)
}

func isGauge(k string) bool { return strings.HasSuffix(k, "_gauge") }

// accumulate adds after-before of every total into c.
func (c layerCounters) accumulate(before, after layerCounters) {
	for k, v := range after {
		if !isGauge(k) {
			c[k] += v - before[k]
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetric is one metric as BENCHMARK.json names it.
type layerMetric struct {
	name, unit string
}

// perLayer lists the traced run's metrics in report order. A layer the
// workload does not reach, or whose counter its public API does not
// expose on that workload, reads 0 (docs in README.md).
var perLayer = []layerMetric{
	{"htm.commit_frac", "ratio"},
	{"htm.conflict_aborts_per_op", "1/op"},
	{"htm.fast_us", "us"},
	{"tm.fast_frac", "ratio"},
	{"tm.fallback_frac", "ratio"},
	{"core.prefix_success", "ratio"},
	{"core.postfix_success", "ratio"},
	{"core.slow_restarts_per_slow", "1/op"},
	{"core.prefix_us", "us"},
	{"core.software_us", "us"},
	{"core.writeback_us", "us"},
	{"serve.server_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.fused_frac", "ratio"},
	{"serve.frames_per_drain", "count"},
	{"serve.snapscan_hit_frac", "ratio"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"persist.durable_ack_us", "us"},
	{"persist.appends_per_fsync", "count"},
	{"persist.fsyncs_per_write", "1/op"},
	{"persist.bytes_per_append", "B"},
	{"persist.disk_bytes_per_write", "B/op"},
	{"serve.shed", "count"},
	{"serve.abort_rate", "ratio"},
	{"conformance.violations", "count"},
	{"mem.arena_used_mb", "MB"},
	{"obs.trace_overhead", "ratio"},
}

// tracedRun is what the traced segments measured besides the counters.
type tracedRun struct {
	t          tally   // merged client-side tallies of the traced segments
	opsPerS    float64 // ops per second over the traced segments
	untracedPS float64 // ops per second over the untraced segments
	allocBytes float64 // Go heap bytes allocated during the traced segments
}

// derive computes every per-layer metric from the counters accumulated over
// the traced segments.
func derive(c layerCounters, tr tracedRun) map[string]float64 {
	ops := float64(tr.t.attempted)
	writes := float64(tr.t.write.n)
	rtt := ratio(float64(tr.t.read.sum+tr.t.write.sum), float64(tr.t.read.n+tr.t.write.n))
	us := func(k string) float64 { return ratio(c[k+"_ns"], c[k+"_n"]) / 1e3 }
	m := map[string]float64{
		"htm.commit_frac":              ratio(c["dev_commits"], c["dev_starts"]),
		"htm.conflict_aborts_per_op":   ratio(c["conflict_aborts"], c["commits"]),
		"htm.fast_us":                  us("fast"),
		"tm.fast_frac":                 ratio(c["fast_commits"], c["commits"]),
		"tm.fallback_frac":             ratio(c["fallbacks"], c["commits"]),
		"core.prefix_success":          ratio(c["prefix_commits"], c["prefix_attempts"]),
		"core.postfix_success":         ratio(c["postfix_commits"], c["postfix_attempts"]),
		"core.slow_restarts_per_slow":  ratio(c["slow_restarts"], c["slow_commits"]),
		"core.prefix_us":               us("prefix"),
		"core.software_us":             us("software"),
		"core.writeback_us":            us("writeback"),
		"serve.server_us":              us("server"),
		"serve.fused_frac":             ratio(c["fused"], c["requests"]),
		"serve.frames_per_drain":       ratio(c["requests"], c["drains"]),
		"serve.snapscan_hit_frac":      ratio(c["snap_hits"], c["snap_attempts"]),
		"go.alloc_bytes_per_op":        ratio(tr.allocBytes, ops),
		"persist.durable_ack_us":       ratio(float64(tr.t.durableNS), float64(tr.t.durableN)) / 1e3,
		"persist.appends_per_fsync":    ratio(c["appends"], c["fsync_groups"]),
		"persist.fsyncs_per_write":     ratio(c["fsyncs"], writes),
		"persist.bytes_per_append":     ratio(c["disk_bytes_gauge"], c["appends_gauge"]),
		"persist.disk_bytes_per_write": ratio(c["disk_bytes_gauge"], c["acked_writes_gauge"]),
		"serve.shed":                   c["shed"],
		"serve.abort_rate":             ratio(c["server_htm_aborts"], c["server_htm_aborts"]+c["commits"]),
		"conformance.violations":       c["violations"],
		"mem.arena_used_mb":            c["arena_bytes_gauge"] / (1 << 20),
		"obs.trace_overhead":           ratio(tr.untracedPS, tr.opsPerS) - 1,
	}
	if c["server_n"] > 0 {
		m["serve.wire_us"] = rtt/1e3 - us("server")
	} else {
		m["serve.wire_us"] = 0
	}
	return m
}

package main

// The names below are the benchmark's vocabulary: later changes are judged
// by them, so they are never renamed. BENCHMARK.json at the repository root
// carries the same names with each end-to-end metric's direction and
// regression bound; bench_test.go keeps the two lists identical.

type metricSpec struct{ name, unit string }

// timingNames are the per-layer metrics every run measures, traced or not.
var timingNames = []string{"ops_s", "lat_p50_us", "lat_p99_us", "read_ops_s", "read_lat_p50_us", "read_lat_p99_us"}

// workloadNames lists the workloads in the order they run; BENCHMARK.json
// lists the same four.
var workloadNames = []string{"serve-small", "serve-large", "embed-cache-pressure", "dyn-durable-churn"}

var endToEndSpec = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"space_amp", "ratio"},
	{"leaf_io_ratio", "ratio"},
}

// perLayerSpec is grouped by layer (= module name). A workload that does
// not exercise a layer reports 0 for it: the layer is not on that path.
var perLayerSpec = []metricSpec{
	// What the callers of the untraced measured phase saw. Issue 11 made
	// these end-to-end metrics with bounds of 10–15 %. On this VM every one
	// of them, on every workload, has had a ten-run spread past 18 % (up to
	// 48 %) when the host was busy, against 2–10 % when it was not, so no
	// bound the contract allows (25 % at most) holds: they are measured in
	// every run, traced or not, compared by -compare, and gate nothing.
	{"ops_s", "ops/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"read_ops_s", "ops/s"},
	{"read_lat_p50_us", "us"},
	{"read_lat_p99_us", "us"},

	{"serve.client.rtt_mean_us", "us"},
	{"serve.client.plain_rtt_mean_us", "us"},
	{"serve.client.retries", "count"},
	{"serve.client.hedges", "count"},
	{"serve.client.breaker_opens", "count"},

	{"serve.server.handle_mean_us", "us"},
	{"serve.server.handle_p50_us", "us"},
	{"serve.server.handle_p99_us", "us"},
	{"serve.server.wire_gap_us", "us"},
	{"serve.server.rejected", "count"},
	{"serve.server.errors", "count"},
	{"serve.server.degraded", "count"},

	{"serve.proto.encode_req_ns", "ns"},
	{"serve.proto.decode_req_ns", "ns"},
	{"serve.proto.encode_resp_ns", "ns"},
	{"serve.proto.decode_resp_ns", "ns"},
	{"serve.proto.resp_bytes", "B"},

	{"serve.set.window_us", "us"},
	{"serve.set.self_us", "us"},
	{"serve.set.fanout_useful_frac", "ratio"},
	{"serve.set.results_per_query", "count"},

	{"prtree.collect_critical_us", "us"},
	{"prtree.collect_sum_us", "us"},
	{"prtree.query_warm_us", "us"},
	{"prtree.open_s", "s"},
	{"prtree.close_s", "s"},
	{"prtree.reopen_s", "s"},
	{"prtree.mutation_stall_max_ms", "ms"},
	{"prtree.mutation_lat_p999_us", "us"},

	{"rtree.nodes_per_query", "count"},
	{"rtree.leaves_per_query", "count"},
	{"rtree.internal_per_query", "count"},
	{"rtree.height", "count"},
	{"rtree.leaf_utilization", "ratio"},

	{"storage.pager.hit_ratio", "ratio"},
	{"storage.pager.misses_per_op", "count"},
	{"storage.pager.evictions_per_op", "count"},
	{"storage.pager.prefetch_used_frac", "ratio"},
	{"storage.pager.resident_pages", "count"},

	{"storage.file.block_reads_per_op", "count"},
	{"storage.file.block_writes_per_op", "count"},
	{"storage.file.prefetch_reads_per_op", "count"},
	{"storage.file.read_page_ns", "ns"},
	{"storage.file.persist_steps_per_mutation", "count"},
	{"storage.file.pages_total", "count"},
	{"storage.file.pages_in_use", "count"},
	{"storage.file.bytes", "B"},

	{"storage.wal.bytes_per_mutation", "B"},
	{"storage.wal.records_per_mutation", "count"},
	{"storage.wal.overhead_frac", "ratio"},

	{"bulk.build_s", "s"},
	{"bulk.build_block_ios", "count"},
	{"bulk.build_ios_per_input_block", "ratio"},
	{"bulk.shard_build_s", "s"},

	{"logmethod.levels_live", "count"},
	{"logmethod.buffer_len", "count"},
	{"logmethod.leaves_per_query", "count"},
	{"logmethod.nodes_per_query", "count"},
	{"logmethod.rebuilt_leaf_io_ratio", "ratio"},

	{"compact.merges_completed", "count"},
	{"compact.merges_aborted", "count"},
	{"compact.pages_rewritten", "count"},
	{"compact.write_amp", "ratio"},

	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},

	{"bench.warmup_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.segment_spread_frac", "ratio"},
}

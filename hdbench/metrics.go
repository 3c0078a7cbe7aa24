package main

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's whole metric surface; BENCHMARK.json lists the same
// names, and emit refuses to print a metric that is not in them.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of each workload sees. Every workload reports
// every entry (README.md tabulates each workload's reading of it):
//
//	cpu_us_per_op     process user+sys CPU per operation (action or acked upload)
//	throughput_per_s  device-corpus: actions per second of the driving
//	                  thread's CPU time; fleet: acked uploads per wall second
//	latency_p50/p99   device-corpus: driving-thread CPU time of one action;
//	                  fleet-ingest: device starts the upload -> 202;
//	                  fleet-fresh: upload due -> end of the first regional
//	                  poll that shows it
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_op", "us"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
}

// perLayer comes from the traced run. Self times are span durations minus
// their child spans; a workload that does not exercise a layer reports 0.
var perLayer = []metricSpec{
	// shared
	{"process.cpu_us_per_op", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_1k_ops", "count"},
	{"bench.fail_ratio", "ratio"},
	{"bench.accounted_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	// device-corpus
	{"corpus.build_ms", "ms"},
	{"corpus.trace_ms", "ms"},
	{"app.new_session_us", "us"},
	{"app.perform_self_us", "us"},
	{"app.idle_us", "us"},
	{"core.action_start_us", "us"},
	{"core.event_start_us", "us"},
	{"core.event_end_us", "us"},
	{"core.action_end_us", "us"},
	{"core.detach_us", "us"},
	{"app.soft_hangs", "count"},
	{"core.scheck_runs", "count"},
	{"core.stack_collections", "count"},
	{"core.detections", "count"},
	{"core.misattributions", "count"},
	{"core.suspicious_per_hang", "ratio"},
	{"core.detections_per_collection", "ratio"},
	{"core.modeled_overhead_pct", "%"},
	{"core.health.perf_open_failures", "count"},
	{"core.health.perf_open_retries", "count"},
	{"core.health.counters_lost", "count"},
	{"core.health.render_lost", "count"},
	{"core.health.stacks_dropped", "count"},
	{"core.health.stacks_truncated", "count"},
	{"core.health.sampler_overruns", "count"},
	{"core.health.verdicts_deferred", "count"},
	{"core.health.low_confidence", "count"},
	{"core.health.quarantines", "count"},
	{"core.health.worker_stacks_lost", "count"},
	{"core.health.causal_fallbacks", "count"},
	// fleet-ingest and fleet-fresh
	{"core.encode_us", "us"},
	{"fleet.upload_handler_us_p50", "us"},
	{"fleet.upload_handler_us_p99", "us"},
	{"net.rtt_overhead_us", "us"},
	{"fleet.queue_depth_p99", "count"},
	{"fleet.merge_us_p50", "us"},
	{"fleet.fragments_per_merge", "ratio"},
	{"wal.bytes_per_upload", "B"},
	{"wal.compactions", "count"},
	{"wal.fsyncs_per_upload", "ratio"},
	{"fleet.accepted_ratio", "ratio"},
	{"fleet.dict_mismatches", "count"},
	// fleet-fresh
	{"fleet.replay_ms", "ms"},
	{"fleet.cold_poll_ms", "ms"},
	{"fleet.ack_latency_p50_us", "us"},
	{"fleet.ack_latency_p99_us", "us"},
	{"fleet.ack_to_visible_ms", "ms"},
	{"fleet.regional_poll_ms_p50", "ms"},
	{"fleet.regional_poll_ms_p99", "ms"},
	{"fleet.poll_changed_entries", "count"},
	{"fleet.delta_handler_us", "us"},
	{"fleet.full_resyncs_per_poll", "ratio"},
	{"bench.generator_late_ms_p99", "ms"},
}

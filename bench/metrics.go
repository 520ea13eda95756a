package main

import "fmt"

// metricDef declares one metric of BENCHMARK.json. The tables below are
// the program's copy of that file's end_to_end and per_layer sections;
// bench_test.go fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see. Every one is
// reported on every workload and is never 0, and one bound serves all five
// workloads: the share of the parent's median by which the metric may get
// worse. Three of the issue's names are per-layer instead (README,
// "End-to-end metrics"): fail_share is 0 at baseline, mb_per_s is
// ops_per_s times a constant on four workloads, and p50_us moves by a
// quarter when the machine has a slow spell. The time-based bounds are as
// wide as the contract allows because such spells last minutes and move
// throughput by up to a fifth (README, "Spread and bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rss_p95_mib", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are the single-layer metrics of the traced pass. Module names
// are the layer names. A metric reads 0 on a workload whose path does
// not include the layer (README, "Layer map").
var perLayer = []metricDef{
	// stubgen_suite: one span per call into a compile layer.
	{Name: "javaparse.load_ms", Unit: "ms", Better: "lower"},
	{Name: "idlparse.load_ms", Unit: "ms", Better: "lower"},
	{Name: "cparse.load_ms", Unit: "ms", Better: "lower"},
	{Name: "goparse.load_ms", Unit: "ms", Better: "lower"},
	{Name: "annotate.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "lower.mtype_ms", Unit: "ms", Better: "lower"},
	{Name: "lower.mtype_nodes", Unit: "count", Better: "lower"},
	{Name: "compare.ms", Unit: "ms", Better: "lower"},
	{Name: "compare.steps", Unit: "count", Better: "lower"},
	{Name: "compare.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "plan.build_ms", Unit: "ms", Better: "lower"},
	{Name: "convert.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "transcode.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "transcode.fused_pairs", Unit: "count", Better: "higher"},
	{Name: "fingerprint.of_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stubgen_p90_ms", Unit: "ms", Better: "lower"},
	// local_stub: rungs around the generated code.
	{Name: "fuse.call_ns", Unit: "ns", Better: "lower"},
	{Name: "fuse.call_allocs", Unit: "count", Better: "lower"},
	{Name: "fuse.compile_us", Unit: "us", Better: "lower"},
	{Name: "fuse.self_ns", Unit: "ns", Better: "lower"},
	{Name: "baseline.handwritten_ns", Unit: "ns", Better: "lower"},
	{Name: "baseline.idl_ns", Unit: "ns", Better: "lower"},
	{Name: "fuse.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.stub_compiled_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stub_interp_ns", Unit: "ns", Better: "lower"},
	{Name: "bind.j_read_ns", Unit: "ns", Better: "lower"},
	{Name: "bind.j_write_ns", Unit: "ns", Better: "lower"},
	{Name: "bind.c_call_ns", Unit: "ns", Better: "lower"},
	{Name: "convert.closure_ns", Unit: "ns", Better: "lower"},
	{Name: "convert.interp_ns", Unit: "ns", Better: "lower"},
	// relay_small and broker_mixed: the message path, rung by rung.
	{Name: "wire.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "transcode.req_ns", Unit: "ns", Better: "lower"},
	{Name: "transcode.reply_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.call_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.call_allocs", Unit: "count", Better: "lower"},
	{Name: "resil.call_ns", Unit: "ns", Better: "lower"},
	{Name: "resil.self_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.pass_call_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.pass_allocs", Unit: "count", Better: "lower"},
	{Name: "gateway.second_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.fused_call_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.fused_allocs", Unit: "count", Better: "lower"},
	{Name: "gateway.lanes_self_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.transcode_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "gateway.req_leg_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.reply_leg_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.call_p99_us", Unit: "us", Better: "lower"},
	// relay_bulk: bytes, rung by rung.
	{Name: "transcode.list_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.push_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.allocs_per_mb", Unit: "count", Better: "lower"},
	{Name: "stream.vs_oneshot_ratio", Unit: "ratio", Better: "higher"},
	{Name: "orb.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gateway.stream_pass_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gateway.stream_fused_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gateway.buffered_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "orb.stream_p90_ms", Unit: "ms", Better: "lower"},
	// broker_mixed: client-side spans by op kind, Broker.Stats deltas.
	{Name: "broker.convert_us", Unit: "us", Better: "lower"},
	{Name: "broker.batch_us", Unit: "us", Better: "lower"},
	{Name: "broker.compare_us", Unit: "us", Better: "lower"},
	{Name: "broker.tree_us", Unit: "us", Better: "lower"},
	{Name: "broker.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "broker.verdict_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broker.converter_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broker.xcode_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broker.fast_share", Unit: "ratio", Better: "higher"},
	{Name: "broker.evictions", Unit: "count", Better: "lower"},
	{Name: "broker.compare_run_ms", Unit: "ms", Better: "lower"},
	{Name: "broker.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "broker.inproc_convert_ns", Unit: "ns", Better: "lower"},
	{Name: "convert.tree_ns", Unit: "ns", Better: "lower"},
	// relay_bulk and broker_mixed: source-payload bytes of verified
	// operations per second.
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher"},
	// every workload.
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "runtime.rss_max_mib", Unit: "MiB", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
}

// measured is one metric value as a run reports it. N is the number of
// samples behind a timing (0 for counts and ratios).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]measured

// set records a metric, taking its unit from the declaration tables so a
// misspelt name fails loudly instead of printing an undeclared metric.
func (m metricSet) set(name string, value float64, n int) {
	m[name] = measured{Value: value, Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared in metrics.go", name))
}

// complete returns the metrics of one table in declaration order, filling
// a metric the run did not take with 0: its layer is not on the workload's
// path.
func (m metricSet) complete(tbl []metricDef) metricSet {
	out := make(metricSet, len(tbl))
	for _, d := range tbl {
		v, ok := m[d.Name]
		if !ok {
			v = measured{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}

package main

// metricDef names one metric. BENCHMARK.json is generated from these
// tables (benchmark -manifest), so the manifest, the numbers printed
// and the bounds -compare applies cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening of the median, as a share of it
	// host metrics are simulator cost in wall time, summarized over the
	// repetitions; sim metrics are the modelled rack in simulated time
	// and repeat bit-identically for a seed.
	host bool
	// fastest host metrics report the best repetition, not the median.
	fastest bool
	// exact per-layer metrics are counts made by the program: they too
	// repeat bit-identically for a seed.
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the system sees, on every
// workload.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, host: true},
	{Name: "host_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, host: true, fastest: true},
	{Name: "host_allocs_per_op", Unit: "1/op", Better: lower, Bound: 0.13, host: true},
	{Name: "host_heap_mb", Unit: "MB", Better: lower, Bound: 0.09, host: true},
	{Name: "sim_throughput_mrps", Unit: "Mop/s", Better: higher, Bound: 0.02},
	{Name: "sim_mean_us", Unit: "us", Better: lower, Bound: 0.02},
	{Name: "sim_p99_us", Unit: "us", Better: lower, Bound: 0.08},
	{Name: "sim_completed_frac", Unit: "ratio", Better: higher, Bound: 0.02},
	{Name: "sim_slo_rate_mrps", Unit: "Mop/s", Better: higher, Bound: 0.02},
	{Name: "sim_speedup_x", Unit: "ratio", Better: higher, Bound: 0.02},
	{Name: "sim_worst_bucket_frac", Unit: "ratio", Better: higher, Bound: 0.21},
	{Name: "sim_linearizable", Unit: "bool", Better: higher, Bound: 0.01},
}

// perLayerMetrics are the ledger: one block per module of the program,
// in data-path order, plus the Go runtime. Shares come from the traced
// run's CPU profile, counts from the public counters, *_ns and *_ms
// from the drivers.
var perLayerMetrics = []metricDef{
	{Name: "sim.events_per_op", Unit: "1/op", Better: lower, exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.cancel_ns", Unit: "ns", Better: lower},
	{Name: "sim.pending_max", Unit: "count", Better: lower},
	{Name: "sim.cpu_share", Unit: "ratio", Better: lower},

	{Name: "simnet.packets_per_op", Unit: "1/op", Better: lower, exact: true},
	{Name: "simnet.hop_ns", Unit: "ns", Better: lower},
	{Name: "simnet.queue_max", Unit: "count", Better: lower},
	{Name: "simnet.replica_util_max", Unit: "ratio", Better: lower, exact: true},
	{Name: "simnet.dropped_frac", Unit: "ratio", Better: lower, exact: true},
	{Name: "simnet.cpu_share", Unit: "ratio", Better: lower},

	{Name: "wire.packet_ns", Unit: "ns", Better: lower},
	{Name: "wire.cpu_share", Unit: "ratio", Better: lower},

	{Name: "dataplane.lookup_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.insert_delete_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.occupancy_max", Unit: "ratio", Better: lower},
	{Name: "dataplane.cpu_share", Unit: "ratio", Better: lower},

	{Name: "core.fast_read_frac", Unit: "ratio", Better: higher, exact: true},
	{Name: "core.dirty_hit_frac", Unit: "ratio", Better: lower, exact: true},
	{Name: "core.forwarded_read_frac", Unit: "ratio", Better: lower, exact: true},
	{Name: "core.writes_dropped_frac", Unit: "ratio", Better: lower, exact: true},
	{Name: "core.sched_read_ns", Unit: "ns", Better: lower},
	{Name: "core.sched_write_ns", Unit: "ns", Better: lower},
	{Name: "core.frontend_ns", Unit: "ns", Better: lower},
	{Name: "core.frozen_drops", Unit: "count", Better: lower, exact: true},
	{Name: "core.stalled_drops", Unit: "count", Better: lower, exact: true},
	{Name: "core.cpu_share", Unit: "ratio", Better: lower},

	{Name: "protocol.pb.write_ns", Unit: "ns", Better: lower},
	{Name: "protocol.pb.msgs_per_write", Unit: "count", Better: lower, exact: true},
	{Name: "protocol.chain.write_ns", Unit: "ns", Better: lower},
	{Name: "protocol.chain.msgs_per_write", Unit: "count", Better: lower, exact: true},
	{Name: "protocol.craq.write_ns", Unit: "ns", Better: lower},
	{Name: "protocol.craq.msgs_per_write", Unit: "count", Better: lower, exact: true},
	{Name: "protocol.vr.write_ns", Unit: "ns", Better: lower},
	{Name: "protocol.vr.msgs_per_write", Unit: "count", Better: lower, exact: true},
	{Name: "protocol.nopaxos.write_ns", Unit: "ns", Better: lower},
	{Name: "protocol.nopaxos.msgs_per_write", Unit: "count", Better: lower, exact: true},
	{Name: "protocol.fast_read_ns", Unit: "ns", Better: lower},
	{Name: "protocol.shim_reject_frac", Unit: "ratio", Better: lower, exact: true},
	{Name: "protocol.cpu_share", Unit: "ratio", Better: lower},

	{Name: "store.get_ns", Unit: "ns", Better: lower},
	{Name: "store.apply_ns", Unit: "ns", Better: lower},
	{Name: "store.cpu_share", Unit: "ratio", Better: lower},

	{Name: "workload.keygen_ns", Unit: "ns", Better: lower},
	{Name: "workload.gen_build_ms", Unit: "ms", Better: lower},
	{Name: "workload.cpu_share", Unit: "ratio", Better: lower},

	{Name: "cluster.retries_per_op", Unit: "1/op", Better: lower, exact: true},
	{Name: "cluster.migration_ms_max", Unit: "ms", Better: lower, exact: true},
	{Name: "cluster.keytab_build_s", Unit: "s", Better: lower},
	{Name: "cluster.cpu_share", Unit: "ratio", Better: lower},

	{Name: "rack.cpu_share", Unit: "ratio", Better: lower},
	{Name: "rebalance.cpu_share", Unit: "ratio", Better: lower},

	{Name: "metrics.observe_ns", Unit: "ns", Better: lower},
	{Name: "metrics.cpu_share", Unit: "ratio", Better: lower},

	{Name: "lincheck.ops_per_s", Unit: "1/s", Better: higher},
	{Name: "lincheck.undecided", Unit: "count", Better: lower},
	{Name: "lincheck.cpu_share", Unit: "ratio", Better: lower},

	{Name: "trace.queue_us", Unit: "us", Better: lower},
	{Name: "trace.service_us", Unit: "us", Better: lower},
	{Name: "trace.network_us", Unit: "us", Better: lower},
	{Name: "trace.retry_us", Unit: "us", Better: lower},
	{Name: "trace.frozen_us", Unit: "us", Better: lower},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace.cpu_share", Unit: "ratio", Better: lower},

	{Name: "runtime.gc_share", Unit: "ratio", Better: lower},
	{Name: "runtime.unattributed_share", Unit: "ratio", Better: lower},
	{Name: "runtime.cpu_s_per_mop", Unit: "s", Better: lower},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs every metric of defs with its measured value; a metric
// nobody measured is an error, not a silent zero.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var errs []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			errs = append(errs, "metric "+d.Name+" was not measured")
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, errs
}

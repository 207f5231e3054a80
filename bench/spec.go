package main

// spec.go is the benchmark's contract in code: workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root carries the same lists
// for the driver; bench_test.go asserts the two agree.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (per-layer metrics have
// none). Exact marks per-layer counts that must repeat exactly for one
// seed and one -seconds.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

var workloads = []workloadSpec{
	{"channel2d", "Table-1 TS channel K=5x3 N=9, Schwarz(FDM)+XXT, 1 worker: the paper's case and the plain single-threaded baseline"},
	{"hairpin3d", "3-D hairpin box K=72 N=5, precond auto (tournament), 1 worker: 3-D shapes, Chebyshev path, Schwarz/FDM/XXT idle in steady state"},
	{"dist_p64", "parrun channel 16x4 N=5 on 64 simulated ASCI-Red ranks: comm, gs, partition, distributed XXT; host and virtual clocks"},
	{"semflowd_jobs", "closed loop, 2 HTTP clients, 2 slots, in-process session service on one processor: setup, cold solves, slots, fsync deposit, artifacts"},
}

// Every workload reports every end-to-end metric. An operation is one
// timed step on the three stepping workloads and one cold job on
// semflowd_jobs. Every duration is read on the reference clock
// (refclock.go), not on the wall clock: on this shared host ten runs of one
// workload spread (interquartile distance over median) by 20–35 % on the
// wall clock and by 2–9 % on the reference clock. The bounds are three
// times the widest spread seen, which is also the most the driver allows.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p75", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricSpec{
	// la: matmul kernels on the first (square, unbatched) shape of
	// la.ShapesForOrder for the workload's order and dimension.
	{Name: "la.mul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.mulabt_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.flops_per_byte", Unit: "flop/B", Better: "higher", Exact: true},
	// tensor
	{Name: "tensor.apply_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "tensor.apply_gflops", Unit: "GFLOP/s", Better: "higher"},
	// sem
	{Name: "sem.helmholtz_us", Unit: "us", Better: "lower"},
	{Name: "sem.helmholtz_ns_per_dof", Unit: "ns", Better: "lower"},
	{Name: "sem.grad_us", Unit: "us", Better: "lower"},
	{Name: "sem.dot_us", Unit: "us", Better: "lower"},
	{Name: "sem.flops_per_helmholtz", Unit: "count", Better: "lower", Exact: true},
	{Name: "sem.pool_speedup", Unit: "x", Better: "higher"},
	// gs
	{Name: "gs.apply_us", Unit: "us", Better: "lower"},
	{Name: "gs.par_apply_host_us", Unit: "us", Better: "lower"},
	{Name: "gs.exchange_virtual_us_p50", Unit: "vus", Better: "lower"},
	{Name: "gs.exchanges_per_step", Unit: "count", Better: "lower", Exact: true},
	// ns
	{Name: "ns.e_apply_us", Unit: "us", Better: "lower"},
	{Name: "ns.gradt_us", Unit: "us", Better: "lower"},
	{Name: "ns.div_us", Unit: "us", Better: "lower"},
	{Name: "ns.convect_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ns.viscous_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ns.pressure_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ns.filter_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ns.step_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ns.substeps_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "ns.cold_start_s", Unit: "s", Better: "lower"},
	{Name: "ns.cold_capped_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "ns.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "ns.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "ns.checkpoint_bytes", Unit: "B", Better: "lower"},
	// solver
	{Name: "solver.pressure_iters_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.helmholtz_iters_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.pressure_cg_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "solver.cg_vector_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "solver.projection_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "solver.projection_savings_mean", Unit: "1", Better: "higher"},
	{Name: "solver.tournament_s", Unit: "s", Better: "lower"},
	{Name: "solver.tournament_trials", Unit: "count", Better: "lower", Exact: true},
	// schwarz / coarse
	{Name: "schwarz.apply_us", Unit: "us", Better: "lower"},
	{Name: "schwarz.local_us", Unit: "us", Better: "lower"},
	{Name: "schwarz.coarse_us", Unit: "us", Better: "lower"},
	{Name: "coarse.xxt_virtual_ms_per_step", Unit: "vms", Better: "lower", Exact: true},
	{Name: "coarse.xxt_host_us", Unit: "us", Better: "lower"},
	// comm
	{Name: "comm.msgs_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "comm.allreduce_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_virtual_us", Unit: "vus", Better: "lower", Exact: true},
	{Name: "comm.allreduce_virtual_share", Unit: "%", Better: "lower"},
	{Name: "comm.send_vlat_us_p50", Unit: "vus", Better: "lower"},
	{Name: "comm.send_vlat_us_p99", Unit: "vus", Better: "lower"},
	// parrun / partition
	{Name: "parrun.virtual_step_ms", Unit: "vms", Better: "lower", Exact: true},
	{Name: "parrun.host_step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "parrun.virtual_convect_ms_per_step", Unit: "vms", Better: "lower", Exact: true},
	{Name: "parrun.virtual_viscous_ms_per_step", Unit: "vms", Better: "lower", Exact: true},
	{Name: "parrun.virtual_pressure_ms_per_step", Unit: "vms", Better: "lower", Exact: true},
	{Name: "parrun.virtual_filter_ms_per_step", Unit: "vms", Better: "lower", Exact: true},
	{Name: "parrun.host_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "parrun.viscous_nonconverged_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "parrun.serial_maxdiff", Unit: "1", Better: "lower"},
	{Name: "partition.rsb_s", Unit: "s", Better: "lower"},
	{Name: "partition.cut_edges", Unit: "count", Better: "lower", Exact: true},
	// session
	{Name: "session.create_ms", Unit: "ms", Better: "lower"},
	{Name: "session.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "session.status_rtt_us", Unit: "us", Better: "lower"},
	{Name: "session.step_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "session.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "session.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "session.store_put_ms", Unit: "ms", Better: "lower"},
	{Name: "session.artifact_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "session.deposit_ms", Unit: "ms", Better: "lower"},
	{Name: "session.auto_job_ms_p50", Unit: "ms", Better: "lower"},
	// the traced pass itself
	{Name: "instrument.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
}

package main

// metricDecl is one declared metric: what BENCHMARK.json says about it.
// Bound is the share of the parent's median by which an end-to-end metric
// may get worse before a change counts as a regression; per-layer metrics
// have none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Floor is an absolute slack, in the metric's unit, that -compare allows
	// on top of Bound: a set-up of 0.15 s is not 20% worse for taking 0.18 s.
	// BENCHMARK.json cannot express it.
	Floor float64
	// Exact marks a count that must repeat exactly between two runs of the
	// same seed (-compare checks it when both sides ran the same seeds).
	Exact bool
}

// endToEndMetrics are what a user of the system sees, measured with tracing
// off, and what BENCHMARK.json gates: ISSUE 11's eight, by its names. The
// bounds are the issue's where ten seeds of the same code on the bench host
// agree that closely, and the measured spread allows otherwise (README,
// "Bounds").
var endToEndMetrics = []metricDecl{
	// build both arms (model, engine, EnableKFAC, ring dial), the correctness gate and the warm-up; median of 3 set-ups, so work moved into set-up shows
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
	// batch size / median vanilla step time
	{Name: "vanilla_seqs_per_s", Unit: "seqs/s", Better: "higher", Bound: 0.25},
	// batch size / median pipefisher step time (round time / K)
	{Name: "pipefisher_seqs_per_s", Unit: "seqs/s", Better: "higher", Bound: 0.25},
	// median over block pairs of pipefisher block time / vanilla block time (paper: 1.04-1.07)
	{Name: "kfac_overhead", Unit: "ratio", Better: "lower", Bound: 0.10},
	// steps after which the pipefisher arm's held-out masked-LM loss is at or below the vanilla arm's at the workload's lossAt step, and stays there; the end of the loss window when never reached
	{Name: "steps_to_loss", Unit: "steps", Better: "lower", Bound: 0.25, Exact: true},
	// steps_to_loss / lossAt x kfac_overhead: pipefisher's wall time to the target over vanilla's (paper: 0.50-0.75)
	{Name: "time_to_loss_ratio", Unit: "ratio", Better: "lower", Bound: 0.25},
	// pipefisher held-out masked-LM loss at the end of the budget: the quality guard for arithmetic-changing PRs
	{Name: "final_loss", Unit: "nats", Better: "lower", Bound: 0.15, Exact: true},
	// VmHWM of the workload's process
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayerMetrics come from the traced run, pipefisher arm unless suffixed
// .vanilla; _ms are per training step.
var perLayerMetrics = []metricDecl{
	// engine: device-time by op kind, from LastTimeline via trace.Summarize.
	{Name: "engine.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.recompute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.curvature_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.inversion_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.precondition_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.sync_grad_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.sync_curvature_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.opt_step_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.busy_share", Unit: "share", Better: "higher"},
	{Name: "engine.refresh_filled_share", Unit: "share", Better: "higher"},
	{Name: "engine.idle_share", Unit: "share", Better: "lower"},
	{Name: "engine.idle_share.vanilla", Unit: "share", Better: "lower"},
	{Name: "engine.round_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.round_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.wait_gap_share", Unit: "share", Better: "lower"},
	{Name: "engine.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.step_ms_p50.vanilla", Unit: "ms", Better: "lower"},
	{Name: "engine.step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "engine.step_ms_p90.vanilla", Unit: "ms", Better: "lower"},
	{Name: "engine.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "engine.ops_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.degraded_steps", Unit: "count", Better: "lower", Exact: true},
	// schedule / pipeline: build and simulate the workload's own config.
	{Name: "schedule.executable_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.assign_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.sim_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "schedule.model_err", Unit: "share", Better: "lower"},
	{Name: "schedule.modeled_overhead", Unit: "ratio", Better: "lower"},
	// bert / data / optim: decorator and callback spans.
	{Name: "bert.embed_ms", Unit: "ms", Better: "lower"},
	{Name: "bert.head_ms", Unit: "ms", Better: "lower"},
	{Name: "bert.calls_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "data.make_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.params", Unit: "count", Better: "lower", Exact: true},
	// transport: rank 0's decorated ring; all 0 on the loopback workloads.
	{Name: "transport.calls_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "transport.collective_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.failed_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.allreduce_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.allreduce_probe_mb_s", Unit: "MB/s", Better: "higher"},
	// tensor: probes at the workload's shapes (T = tokens per micro-batch).
	{Name: "tensor.gemm_ffn_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_ffn_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_attn_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.tmatmul_grad_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.spd_inverse_d_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.spd_inverse_dff_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.pool_tasks_per_step", Unit: "count", Better: "lower"},
	{Name: "tensor.pool_live", Unit: "count", Better: "lower", Exact: true},
	// nn: probes on one TransformerBlock at (micro-batch, seq, d, dff).
	{Name: "nn.block_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.block_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.attention_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.attention_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.dense_fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.gelu_fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.layernorm_fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.softmax_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.block_share", Unit: "share", Better: "higher"},
	// kfac: probes on one block's Dense layers; counters from KFACStates.
	{Name: "kfac.curvature_ms", Unit: "ms", Better: "lower"},
	{Name: "kfac.inverse_ms", Unit: "ms", Better: "lower"},
	{Name: "kfac.precondition_ms", Unit: "ms", Better: "lower"},
	{Name: "kfac.max_inverse_age", Unit: "steps", Better: "lower", Exact: true},
	{Name: "kfac.refreshes", Unit: "count", Better: "higher", Exact: true},
	// trace: what the tracing itself costs.
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// declared indexes every metric by name.
var declared = func() map[string]metricDecl {
	m := make(map[string]metricDecl, len(endToEndMetrics)+len(perLayerMetrics))
	for _, d := range endToEndMetrics {
		m[d.Name] = d
	}
	for _, d := range perLayerMetrics {
		m[d.Name] = d
	}
	return m
}()

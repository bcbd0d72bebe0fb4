//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` at the repo root is rendered from
//! these tables (`--print-manifest`); a test keeps the two identical.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Better direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "rl_vanilla",
        "VeRL-style baseline: tiny-model GRPO with vanilla rollouts; bypasses tlt-draft and the SD path, so a drafter or SD change must not move it",
    ),
    (
        "rl_tlt",
        "the paper's system in miniature: same run with speculative rollouts and a spot-trained adaptive drafter; exercises rollout SD, tlt-draft and tlt-rl",
    ),
    (
        "replay_mono",
        "bulk ServeSim throughput at light load: streamed replay of the derived corpus trace on 4 replicas with adaptive SD and paged KV; output-side memory shows here",
    ),
    (
        "replay_disagg",
        "ClusterSim under bursts: 3P+5D with prefix-affinity routing, KV migration and autoscaler churn, SD off; judges driver unification and autoscaler fixes",
    ),
    (
        "paper_sim",
        "the Figure 11 grid (4 models x 2 GPUs x 4 systems): dominated by rollout::sim_engine, gpusim::cost and the MAB manager; bypasses the tiny model and tlt-serve",
    ),
];

/// One end-to-end metric: name, unit, direction, regression bound.
pub const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("work_per_s", "1/s", Better::Higher, 0.25),
    ("peak_live_mb", "MiB", Better::Lower, 0.10),
    ("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher as H, Lower as L};

/// Every per-layer metric (name, unit, direction), grouped by layer. A workload that does not execute
/// a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // model: timing probes on ModelConfig::tiny() and hook counts.
    ("model.decode_step_us.ctx64", "us", L),
    ("model.decode_step_us.ctx448", "us", L),
    ("model.prefill_us_per_tok", "us", L),
    ("model.sample_ns", "ns", L),
    ("model.matvec_ns.1x32x96", "ns", L),
    ("model.gemm_us.64x64x64", "us", L),
    ("model.train_fwd_us_per_tok", "us", L),
    ("model.train_bwd_us_per_tok", "us", L),
    ("model.apply_update_us", "us", L),
    ("model.decode_steps", "count", L),
    ("model.prefill_tokens", "count", L),
    // rollout: spans around every generate call, SD efficiency, the long tail.
    ("rollout.gen_s", "s", L),
    ("rollout.gen_calls", "count", L),
    ("rollout.tokens", "count", H),
    ("rollout.target_steps", "count", L),
    ("rollout.gen_ms_p50", "ms", L),
    ("rollout.gen_ms_p98", "ms", L),
    ("rollout.target_steps_per_tok", "1/tok", L),
    ("rollout.accept_len_mean", "tok", H),
    ("rollout.sd_rounds", "count", L),
    ("rollout.sd_accepted_tokens", "count", H),
    ("rollout.draft_waste_ratio", "ratio", L),
    ("rollout.resp_len_p50", "tok", H),
    ("rollout.resp_len_p98", "tok", H),
    ("rollout.resp_len_max", "tok", H),
    ("rollout.tail_time_share", "ratio", L),
    ("rollout.sd_decide_ns", "ns", L),
    ("rollout.simulate_rollout_us_per_req", "us", L),
    // draft: spot drafter training on rollout by-products.
    ("draft.feature_s", "s", L),
    ("draft.train_s", "s", L),
    ("draft.train_iters", "count", H),
    ("draft.train_iter_ms", "ms", L),
    ("draft.eval_s", "s", L),
    ("draft.top3_acc_last", "ratio", H),
    ("draft.buffer_bytes_peak", "B", L),
    // rl: the GRPO policy update.
    ("rl.train_step_s", "s", L),
    ("rl.train_step_ms_p50", "ms", L),
    ("rl.train_tokens", "count", H),
    ("rl.reward_mean_last", "reward", H),
    ("rl.kl_mean_last", "nat", L),
    // workload: input generators.
    ("workload.taskgen_s", "s", L),
    ("workload.arrivals_gen_s", "s", L),
    ("workload.arrivals", "count", H),
    // trace: TLTR encode and decode.
    ("trace.encode_s", "s", L),
    ("trace.encode_ns_per_req", "ns", L),
    ("trace.bytes_per_req", "B", L),
    ("trace.decode_s", "s", L),
    ("trace.decode_ns_per_req", "ns", L),
    // serve: host time around the simulators' driver surface.
    ("serve.new_s", "s", L),
    ("serve.advance_s", "s", L),
    ("serve.offer_s", "s", L),
    ("serve.drain_s", "s", L),
    ("serve.report_s", "s", L),
    ("serve.advance_ns_per_req", "ns", L),
    ("serve.offer_ns_per_req", "ns", L),
    ("serve.cost_growth_ratio", "ratio", L),
    // serve: exact counts.
    ("serve.requests", "count", H),
    ("serve.completed", "count", H),
    ("serve.dropped", "count", L),
    ("serve.sim_events", "count", L),
    ("serve.stale_events", "count", L),
    ("serve.events_per_req", "1/req", L),
    ("serve.stale_ratio", "ratio", L),
    ("serve.decode_steps", "count", L),
    ("serve.sd_steps", "count", L),
    ("serve.preemptions", "count", L),
    ("serve.migrations", "count", L),
    ("serve.migrated_blocks", "count", L),
    ("serve.scale_ups", "count", L),
    ("serve.scale_downs", "count", L),
    // serve: single-layer probes.
    ("serve.replica_step_ns", "ns", L),
    ("serve.replica_enqueue_ns", "ns", L),
    ("serve.eventq_push_pop_ns", "ns", L),
    // serve: simulated and exact; must not move under a host-speed change.
    ("serve.sim_makespan_s", "s", L),
    ("serve.sim_goodput_rps", "1/s", H),
    ("serve.sim_slo_attainment", "ratio", H),
    ("serve.sim_ttft_p50_s", "s", L),
    ("serve.sim_ttft_p99_s", "s", L),
    ("serve.sim_tpot_p50_s", "s", L),
    ("serve.sim_tpot_p99_s", "s", L),
    ("serve.sim_util_mean", "ratio", H),
    ("serve.sim_sd_step_fraction", "ratio", H),
    ("serve.sim_accept_len_mean", "tok", H),
    ("serve.sim_prefix_hit_rate", "ratio", H),
    ("serve.sim_pool_util_mean", "ratio", H),
    ("serve.sim_transfer_busy_s", "s", L),
    ("serve.sim_avg_active_replicas", "count", L),
    ("serve.sim_goodput_per_replica", "1/s", H),
    // gpusim: roofline cost-model calls.
    ("gpusim.decode_cost_ns", "ns", L),
    ("gpusim.verify_cost_ns", "ns", L),
    ("gpusim.stage_cost_ns", "ns", L),
    // tlt: the timing-level pipeline, host time then simulated results.
    ("tlt.run_experiment_s.openr1", "s", L),
    ("tlt.run_experiment_s.verl", "s", L),
    ("tlt.run_experiment_s.tltbase", "s", L),
    ("tlt.run_experiment_s.tlt", "s", L),
    ("tlt.loop_other_s", "s", L),
    ("tlt.sim_speedup_tlt_vs_verl.geomean", "x", H),
    ("tlt.sim_speedup_tlt_vs_verl.min", "x", H),
    ("tlt.sim_speedup_tlt_vs_verl.max", "x", H),
    ("tlt.sim_speedup_tltbase_vs_verl.geomean", "x", H),
    ("tlt.sim_rollout_fraction_verl", "ratio", L),
    ("tlt.sim_idle_gpu_s_per_step", "s", L),
    ("tlt.sim_drafter_updates_per_step", "count", H),
    ("tlt.sim_accept_len_mean", "tok", H),
    // obs: cost of the observability calls themselves.
    ("obs.record_off_ns", "ns", L),
    ("obs.record_on_ns", "ns", L),
    ("obs.hook_off_ns", "ns", L),
    // alloc: the counting allocator over one traced rep.
    ("alloc.count", "count", L),
    ("alloc.bytes", "B", L),
    ("alloc.count_per_op", "1/op", L),
    ("alloc.bytes_per_op", "B/op", L),
    ("alloc.peak_live_mb", "MiB", L),
    // bench: the instrument checking itself.
    ("bench.trace_overhead_frac", "ratio", L),
    ("bench.span_cover_frac", "ratio", H),
    ("bench.rep_spread", "ratio", L),
    ("bench.host_slowdown", "ratio", L),
];

/// Unit of an end-to-end or per-layer metric.
///
/// # Panics
///
/// Panics on a name neither table lists: a metric is reported only by a name
/// the manifest declares.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the manifest"))
}

/// Whether a per-layer metric must repeat exactly between two runs of the
/// same code with the same seed: counts, and everything
/// simulated. Host times never do; the live-heap peak includes whatever else
/// the process holds.
pub fn is_exact(name: &str) -> bool {
    if name.contains(".sim_") {
        return true;
    }
    if name.starts_with("bench.")
        || name == "rollout.tail_time_share"
        || name == "serve.cost_growth_ratio"
        || name == "alloc.peak_live_mb"
    {
        return false;
    }
    !matches!(unit_of(name), "s" | "ms" | "us" | "ns")
}

fn quoted(s: &str) -> String {
    tlt_obs::JsonValue::string(s).to_string()
}

/// Renders `BENCHMARK.json`, one workload or metric per line.
pub fn render() -> String {
    let section =
        |key: &str, rows: Vec<String>| format!("  \"{key}\": [\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quoted(name),
                quoted(unit),
                quoted(better.as_str())
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(name),
                quoted(unit),
                quoted(better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}\n",
        section("workloads", workloads),
        section("end_to_end", end_to_end),
        section("per_layer", per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long");
        }
        for (_, unit, _, bound) in END_TO_END {
            assert!(valid_unit(unit));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, unit, _) in PER_LAYER {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Better::Lower));
        assert!(render().len() <= 64 * 1024);
    }
}

//! Online serving pipeline: wires `tlt-workload` arrival streams into the
//! `tlt-serve` subsystem and compares speculative-decoding policies under
//! time-varying open-loop load.
//!
//! This is the serving-side counterpart of [`crate::pipeline`]: instead of
//! simulating closed-loop RL steps it drives a multi-replica deployment with
//! Poisson arrivals and reports SLO metrics (TTFT / TPOT / E2E percentiles,
//! goodput, utilisation) per SD policy. The elastic-SD insight of the paper — SD
//! only pays off below a batch-size threshold — becomes a load-dependent serving
//! policy here, so the adaptive manager is expected to dominate both "never
//! speculate" and "always speculate" across a rate sweep.

use serde::Serialize;
use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::ModelSpec;
use tlt_rollout::{SdManagerConfig, SdMode, SdStrategy};
use tlt_serve::{
    simulate_disagg, simulate_serving, AutoscaleConfig, BalancerPolicy, ClusterReport,
    DisaggConfig, KvAccounting, ServeConfig, ServeReport, SloSpec,
};
use tlt_workload::{
    generate_arrivals, ArrivalConfig, LengthDistribution, RateCurve, SharedPrefixSpec,
};

/// Speculative-decoding policy compared by the serving experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ServingSdPolicy {
    /// Vanilla decoding on every step (the no-SD baseline).
    Disabled,
    /// The default SD strategy forced on for every decode step.
    StaticAlwaysOn,
    /// The adaptive manager: elastic activation on live load + BEG-MAB strategy
    /// selection.
    Adaptive,
}

impl ServingSdPolicy {
    /// All policies, in presentation order.
    pub fn all() -> [ServingSdPolicy; 3] {
        [
            ServingSdPolicy::Disabled,
            ServingSdPolicy::StaticAlwaysOn,
            ServingSdPolicy::Adaptive,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ServingSdPolicy::Disabled => "No SD",
            ServingSdPolicy::StaticAlwaysOn => "Static SD (always on)",
            ServingSdPolicy::Adaptive => "Adaptive SD (ours)",
        }
    }

    /// The `tlt-serve` SD mode implementing this policy.
    pub fn sd_mode(&self) -> SdMode {
        match self {
            ServingSdPolicy::Disabled => SdMode::Disabled,
            ServingSdPolicy::StaticAlwaysOn => SdMode::Static {
                strategy: SdStrategy::default(),
                threshold: usize::MAX,
            },
            ServingSdPolicy::Adaptive => SdMode::Adaptive {
                config: SdManagerConfig::default(),
            },
        }
    }
}

/// Configuration of one serving experiment: a deployment plus an arrival stream.
#[derive(Debug, Clone, Serialize)]
pub struct ServingExperimentConfig {
    /// Target model geometry.
    pub model: ModelSpec,
    /// GPU each replica runs on.
    pub gpu: GpuType,
    /// Tensor-parallel degree per replica.
    pub tp: usize,
    /// Number of replicas behind the frontend.
    pub replicas: usize,
    /// Request routing policy.
    pub balancer: BalancerPolicy,
    /// Time-varying arrival rate.
    pub curve: RateCurve,
    /// Arrival horizon in simulated seconds.
    pub horizon_s: f64,
    /// Prompt lengths (uniform, inclusive).
    pub prompt_len_range: (usize, usize),
    /// Long-tail output-length distribution.
    pub output_lengths: LengthDistribution,
    /// Per-request output cap (drives conservative KV admission).
    pub max_output_tokens: usize,
    /// KV accounting granularity on every replica (flat tokens or paged
    /// blocks with prefix sharing).
    pub kv_accounting: KvAccounting,
    /// Shared system prompt carried by a fraction of the requests.
    pub prefix: Option<SharedPrefixSpec>,
    /// Latency SLO for goodput accounting.
    pub slo: SloSpec,
    /// Seed for the arrival stream and the replicas' tuners.
    pub seed: u64,
    /// Per-replica GPU overrides for heterogeneous fleets, as
    /// `(replica_index, gpu)` pairs; replicas not listed run on `gpu`.
    pub replica_gpus: Vec<(usize, GpuType)>,
}

impl ServingExperimentConfig {
    /// A Qwen-7B / H100 deployment under bursty load at the given mean rate: the
    /// burst phase pushes replicas above the elastic threshold while the quiet
    /// phase drains below it, which is exactly where adaptive SD shines.
    pub fn qwen7b_bursty(replicas: usize, mean_rps: f64) -> Self {
        ServingExperimentConfig {
            model: ModelSpec::qwen2_5_7b(),
            gpu: GpuType::H100,
            tp: 1,
            replicas,
            balancer: BalancerPolicy::JoinShortestQueue,
            // 25% of each period at 3x the base rate (mean = base * 1.5).
            curve: RateCurve::Bursty {
                base_rps: mean_rps / 1.5,
                burst_rps: mean_rps * 2.0,
                burst_fraction: 0.25,
                period_s: 20.0,
            },
            horizon_s: 60.0,
            prompt_len_range: (256, 768),
            output_lengths: LengthDistribution::LongTailMixture {
                mu: 5.3,
                sigma: 0.9,
                truncation_mass: 0.02,
                max_len: 2048,
            },
            max_output_tokens: 2048,
            kv_accounting: KvAccounting::Tokens,
            prefix: None,
            slo: SloSpec {
                ttft_s: 1.0,
                tpot_s: 0.02,
            },
            seed: 2026,
            replica_gpus: Vec::new(),
        }
    }

    /// Runs replica `index` on a different GPU (heterogeneous fleet); the
    /// model geometry and TP degree stay fleet-wide.
    pub fn with_replica_gpu(mut self, index: usize, gpu: GpuType) -> Self {
        assert!(index < self.replicas, "replica index out of range");
        self.replica_gpus.push((index, gpu));
        self
    }

    /// Switches the deployment to paged (block-granular) KV accounting and
    /// gives `share` of the requests a shared system prompt of `prefix_len`
    /// tokens — the configuration behind `experiments -- serving
    /// --prefix-share`.
    pub fn with_prefix_share(mut self, share: f64, prefix_len: usize) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0, 1]");
        self.kv_accounting = KvAccounting::Paged { block_size: 16 };
        self.prefix = Some(SharedPrefixSpec {
            share,
            len: prefix_len,
        });
        self
    }

    /// The arrival stream this experiment serves.
    pub fn arrivals(&self) -> Vec<tlt_workload::RequestArrival> {
        generate_arrivals(&ArrivalConfig {
            curve: self.curve,
            horizon_s: self.horizon_s,
            prompt_len_range: self.prompt_len_range,
            output_lengths: self.output_lengths.clone(),
            prefix: self.prefix,
            seed: self.seed,
        })
    }

    /// The `tlt-serve` deployment config under the given SD policy.
    pub fn serve_config(&self, policy: ServingSdPolicy) -> ServeConfig {
        let cost = LlmCostModel::new(self.model.clone(), self.gpu.spec(), self.tp);
        let mut config = ServeConfig::new(cost, self.replicas)
            .with_balancer(self.balancer)
            .with_sd_mode(policy.sd_mode());
        config.max_output_tokens = self.max_output_tokens;
        config.kv_accounting = self.kv_accounting;
        config.slo = self.slo;
        config.seed = self.seed;
        for &(index, gpu) in &self.replica_gpus {
            config = config.with_replica_cost(
                index,
                LlmCostModel::new(self.model.clone(), gpu.spec(), self.tp),
            );
        }
        config
    }
}

/// Runs one serving experiment under one SD policy.
pub fn run_serving(config: &ServingExperimentConfig, policy: ServingSdPolicy) -> ServeReport {
    let arrivals = config.arrivals();
    simulate_serving(&config.serve_config(policy), &arrivals)
}

/// The pinned deployment every trace replay runs against: the Qwen-7B bursty
/// testbed with adaptive SD and paged KV. Replay compares *workloads* under
/// one fixed scheduler, so the deployment must not drift with the workload —
/// only `replicas` is a knob.
pub fn replay_deployment(replicas: usize) -> ServeConfig {
    let mut config = ServingExperimentConfig::qwen7b_bursty(replicas, 8.0)
        .serve_config(ServingSdPolicy::Adaptive);
    config.kv_accounting = KvAccounting::Paged { block_size: 16 };
    config
}

/// Replays a recorded workload trace against [`replay_deployment`],
/// bit-deterministically: the same trace and replica count always produce the
/// same report.
pub fn run_replay(trace: &tlt_trace::Trace, replicas: usize) -> ServeReport {
    tlt_trace::replay_serving(trace, &replay_deployment(replicas))
}

/// Streamed counterpart of [`run_replay`]: drives the same pinned deployment
/// straight from a chunked TLTR decode, so the arrival vector is never held
/// in memory. Bit-identical to [`run_replay`] on the same trace bytes.
pub fn run_replay_streamed<R: std::io::Read>(
    reader: &mut tlt_trace::TraceReader<R>,
    replicas: usize,
) -> Result<ServeReport, tlt_trace::TraceError> {
    tlt_trace::replay_serving_streamed(reader, &replay_deployment(replicas))
}

/// Runs the same arrival stream under all three SD policies.
pub fn run_serving_comparison(
    config: &ServingExperimentConfig,
) -> Vec<(ServingSdPolicy, ServeReport)> {
    let arrivals = config.arrivals();
    ServingSdPolicy::all()
        .into_iter()
        .map(|policy| {
            (
                policy,
                simulate_serving(&config.serve_config(policy), &arrivals),
            )
        })
        .collect()
}

/// Serves one arrival stream — `share` of the requests carrying a
/// `prefix_len`-token system prompt — twice at a deliberately tight KV
/// budget: once with paged block accounting (shared blocks charged once,
/// prefill only for novel tokens) and once with the legacy flat token budget.
/// Returns `(paged, tokens)` reports; with meaningful sharing the paged run
/// admits more concurrent requests and posts the higher goodput.
pub fn run_prefix_sharing_comparison(
    replicas: usize,
    mean_rps: f64,
    share: f64,
    prefix_len: usize,
) -> (ServeReport, ServeReport) {
    let config = ServingExperimentConfig::qwen7b_bursty(replicas, mean_rps)
        .with_prefix_share(share, prefix_len);
    let arrivals = config.arrivals();
    let tighten = |mut c: ServeConfig| {
        // A quarter of the GPU for weights+KV makes memory the binding
        // resource, which is exactly where admission policy matters.
        c.kv_memory_fraction = 0.25;
        c
    };
    let paged = simulate_serving(
        &tighten(config.serve_config(ServingSdPolicy::Disabled)),
        &arrivals,
    );
    let mut token_config = config.clone();
    token_config.kv_accounting = KvAccounting::Tokens;
    let tokens = simulate_serving(
        &tighten(token_config.serve_config(ServingSdPolicy::Disabled)),
        &arrivals,
    );
    (paged, tokens)
}

/// Serves the same arrival stream — `share` of the requests carrying a
/// `prefix_len`-token system prompt, at a deliberately tight KV budget — on
/// two deployments of **equal replica count**: a disaggregated cluster of
/// `prefill_replicas` + `decode_replicas` (prefix-affinity prefill routing,
/// KV block migration over the default NVLink-class link, least-outstanding
/// decode placement) and a monolithic frontend over the same total. Returns
/// `(disagg, monolithic)`; the headline comparison is goodput **per replica**
/// (`ClusterReport::goodput_per_replica` vs `goodput_rps / total`): at high
/// rates the monolithic replicas' prefills head-of-line-block their decode
/// steps and blow the TPOT SLO, while the disaggregated decode pool never
/// runs a prefill and the prefill pool concentrates the shared prefix.
pub fn run_disagg_comparison(
    prefill_replicas: usize,
    decode_replicas: usize,
    mean_rps: f64,
    share: f64,
    prefix_len: usize,
) -> (ClusterReport, ServeReport) {
    let total = prefill_replicas + decode_replicas;
    let mut config = ServingExperimentConfig::qwen7b_bursty(total, mean_rps)
        .with_prefix_share(share, prefix_len);
    // Prefill-heavy prompts (document / RAG contexts) and a fast-streaming
    // TPOT target: the regime disaggregation was designed for. On a
    // monolithic replica every packed prefill of a 1-3k-token prompt stalls
    // the co-located decode batch for tens of milliseconds, which at load
    // pushes the per-request mean TPOT over the 10 ms streaming SLO.
    config.prompt_len_range = (1024, 3072);
    config.slo = SloSpec {
        ttft_s: 2.0,
        tpot_s: 0.010,
    };
    let arrivals = config.arrivals();
    let mut base = config.serve_config(ServingSdPolicy::Disabled);
    // Memory-tight replicas, as in the prefix-sharing experiment: admission
    // policy (and migration accounting) is what is being measured.
    base.kv_memory_fraction = 0.25;
    // Same peak fleet as the monolithic baseline — the autoscaler can only
    // shed idle replicas (and re-add them for bursts), never exceed the
    // monolithic provisioning, so goodput-per-replica is an apples-to-apples
    // pay-for-what-you-use comparison.
    let autoscale = AutoscaleConfig {
        interval_s: 1.0,
        min_prefill: 1,
        max_prefill: prefill_replicas,
        min_decode: 1,
        max_decode: decode_replicas,
        prefill_queue_high: 4.0,
        prefill_queue_low: 0.5,
        decode_tokens_high: 12_000.0,
        decode_tokens_low: 2_500.0,
        spawn_delay_s: 0.5,
    };
    let disagg = simulate_disagg(
        DisaggConfig::new(base.clone(), prefill_replicas, decode_replicas)
            .with_autoscale(autoscale),
        &arrivals,
    );
    let monolithic = simulate_serving(&base, &arrivals);
    (disagg, monolithic)
}

/// Serves one arrival stream on a heterogeneous fleet — replica `i` running on
/// `fleet[i]` — once per balancer policy. Queue-aware routing sees the slow
/// parts through their longer queues and shifts load toward the fast parts,
/// while round-robin splits arrivals evenly regardless of hardware; the
/// returned reports expose the resulting goodput and per-replica completion
/// split. Returns `(policy, report)` pairs in [`BalancerPolicy`] comparison
/// order (round-robin first).
pub fn run_heterogeneous_comparison(
    fleet: &[GpuType],
    mean_rps: f64,
) -> Vec<(BalancerPolicy, ServeReport)> {
    assert!(!fleet.is_empty(), "need at least one replica");
    let mut config = ServingExperimentConfig::qwen7b_bursty(fleet.len(), mean_rps);
    for (i, &gpu) in fleet.iter().enumerate() {
        if gpu != config.gpu {
            config = config.with_replica_gpu(i, gpu);
        }
    }
    let arrivals = config.arrivals();
    [
        BalancerPolicy::RoundRobin,
        BalancerPolicy::JoinShortestQueue,
        BalancerPolicy::LeastOutstandingTokens,
    ]
    .into_iter()
    .map(|balancer| {
        let mut c = config.clone();
        c.balancer = balancer;
        (
            balancer,
            simulate_serving(&c.serve_config(ServingSdPolicy::Disabled), &arrivals),
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_serves_every_request_under_all_policies() {
        let config = ServingExperimentConfig::qwen7b_bursty(2, 4.0);
        let n = config.arrivals().len();
        assert!(n > 50, "stream too small: {n}");
        for (policy, report) in run_serving_comparison(&config) {
            assert_eq!(
                report.completed.len(),
                n,
                "{}: lost requests",
                policy.name()
            );
        }
    }

    #[test]
    fn adaptive_policy_dominates_at_a_moderate_rate() {
        // The acceptance-shape claim: at a rate oscillating around the elastic
        // threshold, adaptive SD beats No-SD *and* always-on SD on tail TTFT
        // or goodput.
        let config = ServingExperimentConfig::qwen7b_bursty(2, 10.0);
        let results = run_serving_comparison(&config);
        let get = |p: ServingSdPolicy| {
            results
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, r)| r)
                .expect("policy present")
        };
        let disabled = get(ServingSdPolicy::Disabled);
        let always = get(ServingSdPolicy::StaticAlwaysOn);
        let adaptive = get(ServingSdPolicy::Adaptive);
        let beats_on_ttft =
            adaptive.ttft.p99_s < disabled.ttft.p99_s && adaptive.ttft.p99_s < always.ttft.p99_s;
        let beats_on_goodput = adaptive.goodput_rps > disabled.goodput_rps
            && adaptive.goodput_rps > always.goodput_rps;
        assert!(
            beats_on_ttft || beats_on_goodput,
            "adaptive must win on p99 TTFT or goodput: ttft {a:.3}/{d:.3}/{s:.3}, goodput {ag:.3}/{dg:.3}/{sg:.3}",
            a = adaptive.ttft.p99_s,
            d = disabled.ttft.p99_s,
            s = always.ttft.p99_s,
            ag = adaptive.goodput_rps,
            dg = disabled.goodput_rps,
            sg = always.goodput_rps,
        );
    }

    #[test]
    fn paged_prefix_sharing_beats_token_admission_on_goodput() {
        // The acceptance criterion of the paged-KV refactor: at a fixed KV
        // budget with >= 50% of requests sharing a system prompt, block
        // admission with prefix sharing completes the same work with higher
        // goodput than the flat token budget.
        let (paged, tokens) = run_prefix_sharing_comparison(1, 16.0, 0.6, 768);
        assert_eq!(
            paged.completed.len(),
            tokens.completed.len(),
            "both policies must serve every request"
        );
        // A deterministic simulation output, pinned like the serving digests.
        assert_eq!(
            paged.goodput_rps / tokens.goodput_rps,
            1.7500800791859465,
            "paged/token goodput ratio moved: {pg} vs {tg}",
            pg = paged.goodput_rps,
            tg = tokens.goodput_rps
        );
        assert!(paged.mean_prefix_hit_rate() > 0.0, "prefix cache never hit");
        let util = paged.mean_pool_utilization();
        assert!(util > 0.0 && util <= 1.0, "pool utilisation {util}");
        assert_eq!(
            tokens.mean_pool_utilization(),
            0.0,
            "token mode has no pool"
        );
    }

    #[test]
    fn queue_aware_routing_beats_round_robin_on_a_heterogeneous_fleet() {
        // The pinned heterogeneity assertion: with one H100, one A100, and one
        // RTX 4090 behind the frontend, queue-aware routing must match every
        // request served by round-robin and post at least its goodput, and it
        // must shift completions toward the fast part (the H100 replica
        // finishing at least as many requests as the 4090 replica).
        let fleet = [GpuType::H100, GpuType::A100, GpuType::Rtx4090];
        let results = run_heterogeneous_comparison(&fleet, 12.0);
        let get = |p: BalancerPolicy| {
            results
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, r)| r)
                .expect("policy present")
        };
        let rr = get(BalancerPolicy::RoundRobin);
        let jsq = get(BalancerPolicy::JoinShortestQueue);
        assert_eq!(rr.completed.len(), jsq.completed.len(), "lost requests");
        assert_eq!(
            jsq.goodput_rps / rr.goodput_rps,
            1.5259494681156223,
            "JSQ/RR goodput ratio moved: {j} vs {r}",
            j = jsq.goodput_rps,
            r = rr.goodput_rps
        );
        assert!(
            jsq.replicas[0].completed >= jsq.replicas[2].completed,
            "H100 replica should complete at least as much as the RTX 4090: {} vs {}",
            jsq.replicas[0].completed,
            jsq.replicas[2].completed
        );
        // Round-robin ignores hardware, so its split stays near-even.
        let rr_split: Vec<usize> = rr.replicas.iter().map(|r| r.completed).collect();
        let max = *rr_split.iter().max().expect("non-empty");
        let min = *rr_split.iter().min().expect("non-empty");
        assert!(
            max - min <= rr.completed.len() / 3,
            "round-robin split unexpectedly skewed: {rr_split:?}"
        );
    }

    #[test]
    fn heterogeneous_replicas_get_hardware_specific_budgets() {
        let config =
            ServingExperimentConfig::qwen7b_bursty(2, 4.0).with_replica_gpu(1, GpuType::Rtx4090);
        let serve = config.serve_config(ServingSdPolicy::Disabled);
        assert_eq!(serve.cost_for(0).gpu.gpu_type, GpuType::H100);
        assert_eq!(serve.cost_for(1).gpu.gpu_type, GpuType::Rtx4090);
        // The 24 GB part admits against a far smaller KV budget than the H100.
        let mut small = serve.clone();
        small.cost = serve.cost_for(1).clone();
        assert!(small.kv_token_budget() < serve.kv_token_budget() / 2);
    }

    #[test]
    fn disaggregation_beats_monolithic_on_goodput_per_replica() {
        // The headline disaggregation claim over a 20-240 req/s sweep (10x
        // the monolithic serving experiment's rates): a 3-prefill + 5-decode
        // cluster with prefix-affinity routing, KV block migration, and a
        // scale-to-fit autoscaler strictly beats a monolithic 8-replica
        // frontend on goodput per provisioned replica under the fast-streaming
        // SLO. The sweep's geomean ratio is pinned exactly; the mechanism is
        // checked at 60 req/s.
        let sweep: Vec<_> = [20.0, 60.0, 100.0, 160.0, 240.0]
            .iter()
            .map(|&rate| run_disagg_comparison(3, 5, rate, 0.6, 768))
            .collect();
        let log_ratio_sum: f64 = sweep
            .iter()
            .map(|(disagg, mono)| (disagg.goodput_per_replica / (mono.goodput_rps / 8.0)).ln())
            .sum();
        assert_eq!(
            (log_ratio_sum / sweep.len() as f64).exp(),
            5.703368601548463
        );
        let (disagg, mono) = &sweep[1]; // 60 req/s
        assert_eq!(
            disagg.serve.completed.len(),
            mono.completed.len(),
            "both deployments must serve every request"
        );
        assert_eq!(disagg.serve.dropped, 0, "disagg dropped requests");
        let mono_per_replica = mono.goodput_rps / 8.0;
        assert!(
            disagg.goodput_per_replica > mono_per_replica,
            "disaggregation must win on goodput-per-replica: {d:.4} vs {m:.4}",
            d = disagg.goodput_per_replica,
            m = mono_per_replica,
        );
        // The win is mechanically real: every request was migrated over the
        // link exactly once (no recompute, no failovers in a fault-free run),
        // and the decode pool's p99 TPOT holds the 10 ms streaming SLO that
        // monolithic prefill interference breaks.
        assert_eq!(disagg.migrations as usize, disagg.serve.completed.len());
        assert_eq!(disagg.aborted_transfers, 0);
        assert!(
            disagg.serve.tpot.p99_s < 0.010,
            "disagg decode TPOT p99 {:.4}",
            disagg.serve.tpot.p99_s
        );
        assert!(
            mono.tpot.p99_s > 0.010,
            "monolithic TPOT p99 {:.4} should break the streaming SLO",
            mono.tpot.p99_s
        );
        // Prefix-affinity routing actually engaged on the prefill pool.
        let hit = disagg
            .serve
            .replicas
            .iter()
            .map(|r| r.prefix_hit_rate)
            .fold(0.0f64, f64::max);
        assert!(hit > 0.2, "prefill prefix hit rate {hit:.3}");
    }

    #[test]
    fn disagg_comparison_is_deterministic() {
        let (a_disagg, a_mono) = run_disagg_comparison(2, 3, 20.0, 0.6, 768);
        let (b_disagg, b_mono) = run_disagg_comparison(2, 3, 20.0, 0.6, 768);
        assert_eq!(a_disagg.serve.completed, b_disagg.serve.completed);
        assert_eq!(a_disagg.goodput_per_replica, b_disagg.goodput_per_replica);
        assert_eq!(a_disagg.migrations, b_disagg.migrations);
        assert_eq!(a_disagg.scale_ups, b_disagg.scale_ups);
        assert_eq!(a_disagg.scale_downs, b_disagg.scale_downs);
        assert_eq!(a_disagg.retires, b_disagg.retires);
        assert_eq!(a_disagg.avg_active_replicas, b_disagg.avg_active_replicas);
        assert_eq!(a_mono.completed, b_mono.completed);
    }

    #[test]
    fn serving_pipeline_is_deterministic() {
        let config = ServingExperimentConfig::qwen7b_bursty(2, 6.0);
        let a = run_serving(&config, ServingSdPolicy::Adaptive);
        let b = run_serving(&config, ServingSdPolicy::Adaptive);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    }
}

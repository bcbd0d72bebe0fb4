//! Cross-crate integration tests: the full TLT stack wired together.

use tlt::{
    run_comparison, run_experiment, run_token_experiment, SystemKind, TokenExperimentConfig,
};
use tlt_coord::{Coordinator, CoordinatorConfig, WorkerEvent, WorkerState};
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::{ClusterConfig, GpuType, LlmCostModel};
use tlt_model::ModelSpec;
use tlt_rollout::{
    default_batch_buckets, simulate_rollout, CaptureMode, CudaGraphPool, SdManagerConfig, SdMode,
    SdStrategy, SimRolloutConfig,
};
use tlt_workload::LengthDistribution;

fn quick_config() -> tlt::ExperimentConfig {
    tlt::ExperimentConfig::paper_default(
        ModelSpec::qwen2_5_7b(),
        ClusterConfig::single_node(GpuType::H100, 2),
    )
    .scaled_down()
}

#[test]
fn end_to_end_system_ordering_matches_the_paper() {
    let results = run_comparison(&quick_config());
    let throughput = |k: SystemKind| {
        results
            .iter()
            .find(|r| r.system == k)
            .expect("system simulated")
            .throughput_tokens_per_s
    };
    assert!(throughput(SystemKind::Tlt) > throughput(SystemKind::TltBase));
    assert!(throughput(SystemKind::TltBase) > throughput(SystemKind::Verl));
    assert!(throughput(SystemKind::Verl) > throughput(SystemKind::OpenR1));
}

#[test]
fn rollout_bottleneck_is_reduced_but_step_structure_is_preserved() {
    let config = quick_config();
    let verl = run_experiment(SystemKind::Verl, &config);
    let ours = run_experiment(SystemKind::Tlt, &config);
    let verl_breakdown = verl.mean_breakdown();
    let tlt_breakdown = ours.mean_breakdown();
    // TLT attacks the rollout stage specifically.
    assert!(tlt_breakdown.rollout_s < verl_breakdown.rollout_s);
    // The other stages are untouched (same cost model inputs).
    assert!((tlt_breakdown.training_s - verl_breakdown.training_s).abs() < 1e-6);
    assert!(ours.drafter_updates_per_step > 0.0);
}

#[test]
fn coordinator_harvests_exactly_the_idle_workers() {
    let mut coordinator = Coordinator::new(8, CoordinatorConfig::default());
    for (worker, at) in [(3usize, 5.0f64), (5, 7.0), (1, 9.0)] {
        coordinator.handle_event(
            WorkerEvent::StateChanged {
                worker,
                state: WorkerState::Idle,
                at,
            },
            at,
        );
    }
    let session = coordinator.training_session().expect("training session");
    assert_eq!(session.members.len(), 3);
    assert_eq!(coordinator.workers_in_state(WorkerState::Training).len(), 3);
    assert_eq!(coordinator.workers_in_state(WorkerState::Busy).len(), 5);
    let commands = coordinator.preempt_for_rollout();
    assert!(commands.len() >= 8);
    assert!(coordinator.training_session().is_none());
}

#[test]
fn cudagraph_pool_strategies_are_consistent_with_the_mab_buckets() {
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::H100.spec(), 4);
    let drafter = cost.model.eagle_drafter();
    let pool = CudaGraphPool::plan(
        CaptureMode::Bucketed,
        &SdStrategy::default_set(),
        &default_batch_buckets(),
        &cost,
        &drafter,
    );
    // The pool captures a target graph for every batch bucket the engine can see,
    // and deeper verification is reserved for smaller batches: target graphs'
    // tokens per sequence never increase as the bucket grows.
    let mut targets: Vec<(usize, usize)> = pool
        .graphs
        .iter()
        .filter(|g| !g.for_drafter)
        .map(|g| (g.batch_bucket, g.tokens_per_seq))
        .collect();
    targets.sort_unstable_by_key(|&(bucket, tokens)| (bucket, std::cmp::Reverse(tokens)));
    let mut buckets: Vec<usize> = targets.iter().map(|&(bucket, _)| bucket).collect();
    buckets.dedup();
    assert_eq!(buckets, default_batch_buckets());
    for pair in targets.windows(2) {
        assert!(pair[1].1 <= pair[0].1, "{targets:?}");
    }
    assert!(targets[0].1 > targets[targets.len() - 1].1);
}

#[test]
fn adaptive_rollout_beats_stale_rollout_beats_vanilla() {
    // Ties the drafter acceptance model to the rollout engine: a fresher drafter must
    // translate into faster rollouts.
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::H100.spec(), 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let lengths = LengthDistribution::LongTailMixture {
        mu: 6.5,
        sigma: 0.8,
        truncation_mass: 0.05,
        max_len: 8192,
    }
    .sample_many(64, &mut rng);
    let run = |acceptance: AcceptanceProfile| {
        let config = SimRolloutConfig {
            acceptance,
            ..SimRolloutConfig::vanilla(cost.clone())
        }
        .with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
        simulate_rollout(&config, &lengths).total_time_s
    };
    let vanilla = simulate_rollout(&SimRolloutConfig::vanilla(cost.clone()), &lengths).total_time_s;
    let stale = run(AcceptanceProfile::stale_drafter());
    let adaptive = run(AcceptanceProfile::adaptive_drafter());
    assert!(
        adaptive < stale,
        "adaptive {adaptive} should beat stale {stale}"
    );
    assert!(
        stale < vanilla,
        "stale-drafter SD {stale} should still beat vanilla {vanilla}"
    );
}

#[test]
fn token_level_pipeline_trains_policy_and_drafter_together() {
    let (report, target, drafter) = run_token_experiment(&TokenExperimentConfig::small(true, true));
    assert_eq!(report.reward_curve.len(), 3);
    assert!(report.generated_tokens > 0);
    assert!(drafter.version > 0);
    // The drafter is a valid by-product: it can immediately draft for the final target.
    let prompt = [1u32, 2, 3];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let result = tlt_rollout::speculative_generate(
        &target,
        &tlt_rollout::SpecDrafter::Learned(&drafter),
        &prompt,
        16,
        SdStrategy {
            draft_depth: 4,
            top_k: 1,
            tokens_to_verify: 4,
        },
        tlt_model::SamplingParams::greedy(),
        None,
        &mut rng,
    );
    assert!(!result.tokens.is_empty());
}

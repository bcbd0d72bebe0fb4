//! Reference model for the timing-level rollout engine.
//!
//! `oracle_simulate_rollout` is the engine as it stood before the SD-step
//! evaluator, the sorted live set with its deferred commits and the batch / context
//! split of the step cost: it keeps a remaining and a generated length per request,
//! rebuilds the active index list from every request on every step, re-derives the
//! expected accept length inline and costs every step from the model geometry.
//! It lives here, test-only and not selectable at run time, so the production
//! crate carries one engine; the properties below hold the two bit-identical over
//! SD modes, deployments (model, GPU, tensor-parallel degree, prompt length) and
//! acceptance profiles, including the ones whose accept length is an integer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::ModelSpec;
use tlt_rollout::{
    simulate_rollout, AdaptiveSdManager, DrafterChoice, SdDecision, SdManagerConfig, SdMode,
    SdStrategy, SimRolloutConfig, StepObservation, TimelinePoint,
};
use tlt_workload::LengthDistribution;

/// The profile as the oracle was frozen with it: the engine's has since gained
/// step counts, which the oracle's loop does not report.
struct RolloutProfile {
    total_time_s: f64,
    total_tokens: usize,
    throughput_tokens_per_s: f64,
    sd_activation_time_s: Option<f64>,
    timeline: Vec<TimelinePoint>,
    idle_request_seconds: f64,
    mean_accept_length: f64,
}

fn oracle_simulate_rollout(
    config: &SimRolloutConfig,
    response_lengths: &[usize],
) -> RolloutProfile {
    assert!(!response_lengths.is_empty(), "need at least one request");
    let mut remaining: Vec<f64> = response_lengths.iter().map(|&l| l.max(1) as f64).collect();
    let mut generated: Vec<f64> = vec![0.0; remaining.len()];
    let total_target_tokens: usize = response_lengths.iter().sum();
    let mut manager = match &config.sd_mode {
        SdMode::Adaptive { config: mc } => Some(AdaptiveSdManager::new(*mc)),
        _ => None,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut time_s = 0.0;
    let mut timeline = Vec::new();
    let mut sd_activation_time = None;
    let mut idle_request_seconds = 0.0;
    let mut accept_len_sum = 0.0;
    let mut accept_len_count = 0usize;
    let mut steps = 0u64;

    // Prompt prefill for the whole batch.
    time_s += config.cost.prefill_time(remaining.len(), config.prompt_len);

    loop {
        let active: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| (r > 0.0).then_some(i))
            .collect();
        if active.is_empty() {
            break;
        }
        let batch = active.len();
        let avg_context = config.prompt_len
            + (active.iter().map(|&i| generated[i]).sum::<f64>() / batch as f64) as usize;

        // Decide how to decode this step.
        let decision = match &config.sd_mode {
            SdMode::Disabled => SdDecision::Vanilla,
            SdMode::Static {
                strategy,
                threshold,
            } => {
                if batch <= *threshold {
                    SdDecision::Speculative {
                        drafter: DrafterChoice::Learned,
                        strategy: *strategy,
                    }
                } else {
                    SdDecision::Vanilla
                }
            }
            SdMode::Adaptive { .. } => manager
                .as_mut()
                .expect("manager present in adaptive mode")
                .decide(batch, &mut rng),
        };

        let (step_time, tokens_per_seq, sd_active) = match decision {
            SdDecision::Vanilla => (config.cost.decode_step_time(batch, avg_context), 1.0, false),
            SdDecision::Speculative { drafter, strategy } => {
                let profile = match drafter {
                    DrafterChoice::Learned => &config.acceptance,
                    DrafterChoice::ModelFree => &config.model_free_acceptance,
                };
                let accept = profile.expected_accept_len_tree(
                    strategy.draft_depth,
                    strategy.top_k,
                    strategy.tokens_to_verify,
                );
                let t = config.cost.speculative_step_time(
                    &config.drafter,
                    batch,
                    strategy.draft_depth,
                    strategy.tokens_to_verify,
                    avg_context,
                );
                if let Some(m) = manager.as_mut() {
                    m.record(
                        &strategy,
                        StepObservation {
                            elapsed_s: t,
                            accepted_tokens: (accept - 1.0) * batch as f64,
                            batch_size: batch,
                        },
                    );
                }
                accept_len_sum += accept;
                accept_len_count += 1;
                (t, accept, true)
            }
        };
        if sd_active && sd_activation_time.is_none() {
            sd_activation_time = Some(time_s);
        }

        // Idle accounting: requests already finished wait for the stragglers.
        let finished = remaining.len() - batch;
        idle_request_seconds += finished as f64 * step_time;

        for &i in &active {
            let committed = tokens_per_seq.min(remaining[i]);
            remaining[i] -= committed;
            generated[i] += committed;
        }
        time_s += step_time;
        steps += 1;

        // Record a timeline point roughly every simulated second of progress (and on
        // every change of SD activation) to keep profiles compact.
        let record = timeline.last().is_none_or(|p: &TimelinePoint| {
            time_s - p.time_s > 1.0 || p.sd_active != sd_active || p.running_requests != batch
        });
        if record {
            timeline.push(TimelinePoint {
                time_s,
                running_requests: batch,
                sd_active,
            });
        }
        // Safety valve against pathological configurations.
        if steps > 20_000_000 {
            break;
        }
    }

    RolloutProfile {
        total_time_s: time_s,
        total_tokens: total_target_tokens,
        throughput_tokens_per_s: total_target_tokens as f64 / time_s.max(1e-9),
        sd_activation_time_s: sd_activation_time,
        timeline,
        idle_request_seconds,
        mean_accept_length: if accept_len_count == 0 {
            1.0
        } else {
            accept_len_sum / accept_len_count as f64
        },
    }
}

/// The SD modes the engine is held to the oracle on.
fn sd_mode(selector: usize) -> SdMode {
    let static_at = |threshold| SdMode::Static {
        strategy: SdStrategy::default(),
        threshold,
    };
    let adaptive = |learned| SdMode::Adaptive {
        config: SdManagerConfig {
            learned_drafter_available: learned,
            ..SdManagerConfig::default()
        },
    };
    match selector {
        0 => SdMode::Disabled,
        1 => static_at(1),
        2 => static_at(32),
        3 => static_at(usize::MAX),
        4 => adaptive(true),
        _ => adaptive(false),
    }
}

fn assert_bit_identical(engine: &tlt_rollout::RolloutProfile, oracle: &RolloutProfile) {
    assert_eq!(engine.total_time_s.to_bits(), oracle.total_time_s.to_bits());
    assert_eq!(engine.total_tokens, oracle.total_tokens);
    assert_eq!(
        engine.throughput_tokens_per_s.to_bits(),
        oracle.throughput_tokens_per_s.to_bits()
    );
    assert_eq!(
        engine.sd_activation_time_s.map(f64::to_bits),
        oracle.sd_activation_time_s.map(f64::to_bits)
    );
    assert_eq!(
        engine.idle_request_seconds.to_bits(),
        oracle.idle_request_seconds.to_bits()
    );
    assert_eq!(
        engine.mean_accept_length.to_bits(),
        oracle.mean_accept_length.to_bits()
    );
    assert_eq!(engine.timeline.len(), oracle.timeline.len());
    for (e, o) in engine.timeline.iter().zip(&oracle.timeline) {
        assert_eq!(e.time_s.to_bits(), o.time_s.to_bits());
        assert_eq!(e.running_requests, o.running_requests);
        assert_eq!(e.sd_active, o.sd_active);
    }
}

/// The deployments the engine is held to the oracle on, with the prompt length:
/// tensor-parallel all-reduces are zero at tp 1, and the mean context is the
/// prompt length plus a mean the engine no longer sums request by request.
const DEPLOYMENTS: usize = 6;

fn deployment(selector: usize) -> (LlmCostModel, usize) {
    let cost = |model, gpu: GpuType, tp| LlmCostModel::new(model, gpu.spec(), tp);
    match selector {
        0 => (cost(ModelSpec::qwen2_5_7b(), GpuType::H100, 1), 512),
        1 => (cost(ModelSpec::qwen2_5_7b(), GpuType::H100, 2), 512),
        2 => (cost(ModelSpec::qwen2_5_7b(), GpuType::A100, 4), 2000),
        3 => (cost(ModelSpec::llama3_70b(), GpuType::H100, 8), 512),
        4 => (cost(ModelSpec::llama3_70b(), GpuType::A100, 4), 2000),
        _ => (cost(ModelSpec::llama3_70b(), GpuType::A100, 8), 1),
    }
}

/// The drafter's acceptance: the mode's own profiles, every draft accepted, or
/// none. The last two make the expected accept length an integer, so a
/// speculative step commits without touching the live requests.
const ACCEPTANCES: usize = 3;

fn check_on(deployment_sel: usize, acceptance: usize, lengths: &[usize], mode: usize, seed: u64) {
    let (cost, prompt_len) = deployment(deployment_sel);
    let mut config = SimRolloutConfig::vanilla(cost).with_sd_mode(sd_mode(mode));
    config.seed = seed;
    config.prompt_len = prompt_len;
    // The TLT-Base shape: the "learned" slot holds a weaker profile than default.
    if mode == 5 {
        config.acceptance = AcceptanceProfile::stale_drafter();
    }
    if acceptance > 0 {
        let rate = if acceptance == 1 { 1.0 } else { 0.0 };
        config.acceptance = AcceptanceProfile::from_measured(vec![rate; 16]);
        config.model_free_acceptance = config.acceptance.clone();
    }
    assert_bit_identical(
        &simulate_rollout(&config, lengths),
        &oracle_simulate_rollout(&config, lengths),
    );
}

/// The deployment and acceptance every case ran on before the others were added.
fn check(lengths: &[usize], mode: usize, seed: u64) {
    check_on(0, 0, lengths, mode, seed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary length vectors, every SD mode, several seeds.
    #[test]
    fn engine_matches_oracle_on_random_lengths(
        lengths in proptest::collection::vec(1usize..=8192, 1..601),
        mode in 0usize..6,
        seed in 0u64..1_000_000,
        deployment in 0..DEPLOYMENTS,
        acceptance in 0..ACCEPTANCES,
    ) {
        check(&lengths, mode, seed);
        check_on(deployment, acceptance, &lengths, mode, seed);
    }

    /// Few distinct values, so many requests finish on the same step.
    #[test]
    fn engine_matches_oracle_on_tied_lengths(
        picks in proptest::collection::vec(0usize..4, 1..601),
        values in proptest::collection::vec(1usize..=8192, 4..5),
        mode in 0usize..6,
        seed in 0u64..1_000_000,
        deployment in 0..DEPLOYMENTS,
        acceptance in 0..ACCEPTANCES,
    ) {
        let lengths: Vec<usize> = picks.iter().map(|&p| values[p]).collect();
        check(&lengths, mode, seed);
        check_on(deployment, acceptance, &lengths, mode, seed);
    }

    /// Every request has the same length: one step empties the set.
    #[test]
    fn engine_matches_oracle_on_all_equal_lengths(
        requests in 1usize..=600,
        length in 1usize..=8192,
        mode in 0usize..6,
        seed in 0u64..1_000_000,
        deployment in 0..DEPLOYMENTS,
        acceptance in 0..ACCEPTANCES,
    ) {
        check(&vec![length; requests], mode, seed);
        check_on(deployment, acceptance, &vec![length; requests], mode, seed);
    }
}

/// Every mode, pinned: the proptest draws above need not cover all six. The
/// lengths include zero, ties and a tail.
#[test]
fn engine_matches_oracle_in_every_mode_on_a_long_tail() {
    let lengths: Vec<usize> = (0..200usize)
        .map(|i| 1 + (i * i * 37) % 3000 + if i % 50 == 0 { 5000 } else { 0 })
        .chain([0, 8192, 8192, 1])
        .collect();
    for mode in 0..6 {
        for seed in [0, 7, 0xDEAD_BEEF] {
            check(&lengths, mode, seed);
        }
        // Every deployment under every acceptance, pinned the same way.
        for deployment in 0..DEPLOYMENTS {
            for acceptance in 0..ACCEPTANCES {
                check_on(deployment, acceptance, &lengths, mode, 7);
            }
        }
    }
}

/// `paper_default` scale: worker shares of 16 to 128 responses drawn from its
/// length distribution (2% of them at the 32,768 cap), under a static strategy
/// that switches on at 32 requests. The vanilla phase defers tens of thousands of
/// commits, which the first speculative step applies to the live requests at once
/// (fractional accept length) or goes on deferring (integral).
#[test]
fn engine_matches_oracle_at_paper_scale_across_the_vanilla_to_speculative_switch() {
    let dist = LengthDistribution::LongTailMixture {
        mu: 7.3,
        sigma: 0.9,
        truncation_mass: 0.02,
        max_len: 32_768,
    };
    let mut rng = StdRng::seed_from_u64(2026);
    for share in [16, 32, 64, 128] {
        let mut lengths = dist.sample_many(share, &mut rng);
        // At least one response at the cap, whatever the draw.
        lengths[share / 2] = 32_768;
        for (deployment, acceptance) in [(1, 0), (1, 1), (3, 0), (4, 2)] {
            check_on(deployment, acceptance, &lengths, 2, 0);
        }
    }
}

/// An accept length of ~1.1 brings the shared progress within an ulp or two of an
/// integer every ten steps (10.999999999999998 after the tenth), which is where a
/// mean context read off the scalar could truncate differently from the oracle's
/// request-by-request sum; the engine sums there, and this holds it to that.
#[test]
fn engine_matches_oracle_when_progress_is_an_ulp_from_an_integer() {
    let (cost, _) = deployment(1);
    let mut config = SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Static {
        strategy: SdStrategy {
            draft_depth: 1,
            top_k: 1,
            tokens_to_verify: 1,
        },
        threshold: usize::MAX,
    });
    config.acceptance = AcceptanceProfile::from_measured(vec![0.1]);
    let lengths: Vec<usize> = (0..48).map(|i| 4096 - 61 * i).collect();
    let engine = simulate_rollout(&config, &lengths);
    assert!(engine.mean_accept_length > 1.09 && engine.mean_accept_length < 1.11);
    assert_bit_identical(&engine, &oracle_simulate_rollout(&config, &lengths));
}

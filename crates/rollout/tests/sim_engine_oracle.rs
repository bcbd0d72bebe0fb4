//! Reference model for the timing-level rollout engine.
//!
//! `oracle_simulate_rollout` is the engine as it stood before the SD-step
//! evaluator, the sorted live set with its shared progress and the batch / context
//! split of the step cost: it keeps a remaining and a generated length per request,
//! rebuilds the active index list from every request on every step, re-derives the
//! expected accept length inline and costs every step from the model geometry.
//! A speculative step commits to every request the whole tokens by which the
//! integer part of the exact sum of the accept lengths so far grew, kept as one
//! fixed-point sum rather than as the engine's carry.
//! It lives here, test-only and not selectable at run time, so the production
//! crate carries one engine. The engine advances a run of steps in closed form,
//! which sums the same step times in another order: the properties below hold
//! every count, token total and timeline point's state equal to the oracle's,
//! and every time and the mean accept length to within [`TOLERANCE`], over SD
//! modes, deployments (model, GPU, tensor-parallel degree, prompt length) and
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

/// The profile as the oracle was frozen with it, plus the step counts its loop
/// keeps (the engine's profile gained them later).
struct RolloutProfile {
    total_time_s: f64,
    total_tokens: usize,
    throughput_tokens_per_s: f64,
    sd_activation_time_s: Option<f64>,
    timeline: Vec<TimelinePoint>,
    idle_request_seconds: f64,
    mean_accept_length: f64,
    steps: u64,
    speculative_steps: u64,
}

fn oracle_simulate_rollout(
    config: &SimRolloutConfig,
    response_lengths: &[usize],
) -> RolloutProfile {
    assert!(!response_lengths.is_empty(), "need at least one request");
    let mut remaining: Vec<usize> = response_lengths.iter().map(|&l| l.max(1)).collect();
    let mut generated: Vec<usize> = vec![0; remaining.len()];
    // Every accept length is at least 1, hence a multiple of 2^-52: this sum of
    // them in units of 2^-52 is exact.
    let mut accept_sum: u128 = 0;
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
            .filter_map(|(i, &r)| (r > 0).then_some(i))
            .collect();
        if active.is_empty() {
            break;
        }
        let batch = active.len();
        let avg_context =
            config.prompt_len + active.iter().map(|&i| generated[i]).sum::<usize>() / batch;

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
            SdDecision::Vanilla => (config.cost.decode_step_time(batch, avg_context), 1, false),
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
                let before = accept_sum >> 52;
                accept_sum += (accept * 2f64.powi(52)) as u128;
                (t, (accept_sum >> 52) - before, true)
            }
        };
        if sd_active && sd_activation_time.is_none() {
            sd_activation_time = Some(time_s);
        }

        // Idle accounting: requests already finished wait for the stragglers.
        let finished = remaining.len() - batch;
        idle_request_seconds += finished as f64 * step_time;

        for &i in &active {
            let committed = (tokens_per_seq as usize).min(remaining[i]);
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
        steps,
        speculative_steps: accept_len_count as u64,
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

/// The largest relative difference allowed between a time (or the mean accept
/// length) of the engine and the oracle's: the two sum the same step times in
/// different orders.
const TOLERANCE: f64 = 1e-12;

/// `|a - b|` relative to the larger magnitude (0 when both are 0).
fn relative_error(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Holds every count, token total and timeline state equal and every time to
/// [`TOLERANCE`]; returns the largest relative error seen.
fn assert_close(engine: &tlt_rollout::RolloutProfile, oracle: &RolloutProfile) -> f64 {
    assert_eq!(engine.total_tokens, oracle.total_tokens);
    assert_eq!(engine.steps, oracle.steps);
    assert_eq!(engine.speculative_steps, oracle.speculative_steps);
    assert_eq!(
        engine.sd_activation_time_s.is_some(),
        oracle.sd_activation_time_s.is_some()
    );
    assert_eq!(engine.timeline.len(), oracle.timeline.len());
    let mut times = vec![
        ("total_time_s", engine.total_time_s, oracle.total_time_s),
        (
            "throughput_tokens_per_s",
            engine.throughput_tokens_per_s,
            oracle.throughput_tokens_per_s,
        ),
        (
            "idle_request_seconds",
            engine.idle_request_seconds,
            oracle.idle_request_seconds,
        ),
        (
            "mean_accept_length",
            engine.mean_accept_length,
            oracle.mean_accept_length,
        ),
    ];
    if let (Some(e), Some(o)) = (engine.sd_activation_time_s, oracle.sd_activation_time_s) {
        times.push(("sd_activation_time_s", e, o));
    }
    for (i, (e, o)) in engine.timeline.iter().zip(&oracle.timeline).enumerate() {
        assert_eq!(e.running_requests, o.running_requests, "point {i}");
        assert_eq!(e.sd_active, o.sd_active, "point {i}");
        times.push(("timeline time_s", e.time_s, o.time_s));
    }
    let mut worst = 0.0f64;
    for (field, e, o) in times {
        let error = relative_error(e, o);
        assert!(error <= TOLERANCE, "{field}: {e} vs {o} ({error:e})");
        worst = worst.max(error);
    }
    worst
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
/// none. The last two make the expected accept length an integer, so the
/// carry stays at zero.
const ACCEPTANCES: usize = 3;

fn check_on(
    deployment_sel: usize,
    acceptance: usize,
    lengths: &[usize],
    mode: usize,
    seed: u64,
) -> f64 {
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
    check_config(&config, lengths)
}

/// Holds the engine to the oracle on `config`; the largest relative error.
fn check_config(config: &SimRolloutConfig, lengths: &[usize]) -> f64 {
    assert_close(
        &simulate_rollout(config, lengths),
        &oracle_simulate_rollout(config, lengths),
    )
}

/// The deployment and acceptance every case ran on before the others were added.
fn check(lengths: &[usize], mode: usize, seed: u64) -> f64 {
    check_on(0, 0, lengths, mode, seed)
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
    let mut worst = 0.0f64;
    for mode in 0..6 {
        for seed in [0, 7, 0xDEAD_BEEF] {
            worst = worst.max(check(&lengths, mode, seed));
        }
        // Every deployment under every acceptance, pinned the same way.
        for deployment in 0..DEPLOYMENTS {
            for acceptance in 0..ACCEPTANCES {
                worst = worst.max(check_on(deployment, acceptance, &lengths, mode, 7));
            }
        }
    }
    eprintln!("largest relative error on the long tail: {worst:e}");
}

/// `paper_default` scale: worker shares of 16 to 128 responses drawn from its
/// length distribution (2% of them at the 32,768 cap), under a static strategy
/// that switches on at 32 requests: tens of thousands of vanilla steps, then
/// speculative ones with a fractional (carried) or an integral accept length.
#[test]
fn engine_matches_oracle_at_paper_scale_across_the_vanilla_to_speculative_switch() {
    let dist = LengthDistribution::LongTailMixture {
        mu: 7.3,
        sigma: 0.9,
        truncation_mass: 0.02,
        max_len: 32_768,
    };
    let mut rng = StdRng::seed_from_u64(2026);
    let mut worst = 0.0f64;
    for share in [16, 32, 64, 128] {
        let mut lengths = dist.sample_many(share, &mut rng);
        // At least one response at the cap, whatever the draw.
        lengths[share / 2] = 32_768;
        for (deployment, acceptance) in [(1, 0), (1, 1), (3, 0), (4, 2)] {
            worst = worst.max(check_on(deployment, acceptance, &lengths, 2, 0));
        }
    }
    eprintln!("largest relative error at paper scale: {worst:e}");
}

/// The static one-token strategy whose accept length is 1.1.
fn accept_one_point_one() -> SimRolloutConfig {
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
    config
}

/// An accept length of 1.1 is the `f64` 1.100000000000000088..., so the exact
/// sum of ten of them is just above 11, while adding them up in `f64` gives
/// 10.999999999999998. The engine commits the integer part of the exact sum: a
/// lone request of 11 tokens is done after ten steps, not eleven, and every
/// request of a long batch finishes where the oracle's does.
#[test]
fn engine_commits_the_integer_part_of_the_exact_accept_sum() {
    let config = accept_one_point_one();
    let lone = simulate_rollout(&config, &[11]);
    assert_eq!(lone.steps, 10);
    // The oracle sums the accept lengths in `f64` (1.0999999999999999 after
    // division by ten); the engine's mean is within rounding of 1.1.
    let oracle = oracle_simulate_rollout(&config, &[11]);
    assert_eq!(oracle.mean_accept_length, 1.0999999999999999);
    assert_close(&lone, &oracle);
    let lengths: Vec<usize> = (0..48).map(|i| 4096 - 61 * i).collect();
    let engine = simulate_rollout(&config, &lengths);
    assert_eq!(engine.steps, 3724, "4096 tokens, 1.1 a step");
    assert_close(&engine, &oracle_simulate_rollout(&config, &lengths));
}

/// At accept length 1.1 a step commits one token, or two when the carried
/// fraction passes a whole token. Every response here ends on a step of two, so
/// each run's last step is one on which the carry crosses a token.
#[test]
fn engine_matches_oracle_when_the_carry_crosses_a_token_on_a_runs_last_step() {
    let config = accept_one_point_one();
    let SdMode::Static { strategy, .. } = config.sd_mode else {
        unreachable!("a static strategy")
    };
    let accept = tlt_rollout::expected_accept_len(&config.acceptance, &strategy);
    assert_eq!(accept, 1.1);
    // Tokens committed after `j` steps: the integer part of the exact sum.
    let units = (accept * 2f64.powi(52)) as u128;
    let committed = |j: u128| ((j * units) >> 52) as usize;
    let (ends, lengths): (Vec<u128>, Vec<usize>) = (1..4000)
        .filter(|&j| committed(j) - committed(j - 1) == 2)
        .map(|j| (j, committed(j)))
        .unzip();
    assert!(lengths.len() > 300, "{} lengths", lengths.len());
    let engine = simulate_rollout(&config, &lengths);
    assert_eq!(u128::from(engine.steps), *ends.last().expect("lengths"));
    assert_close(&engine, &oracle_simulate_rollout(&config, &lengths));
}

/// A batch whose passes turn from compute- to memory-bound as the context
/// grows, for vanilla and for speculative steps: the prompt sits 600 positions
/// below the crossover and every response (all of one length, so the batch never
/// changes) runs 2,000 tokens, so the crossover falls inside the run.
#[test]
fn engine_matches_oracle_where_a_run_crosses_from_compute_to_memory_bound() {
    let (cost, _) = deployment(0);
    let strategy = SdStrategy::default();
    let speculative = SdMode::Static {
        strategy,
        threshold: usize::MAX,
    };
    let mut worst = 0.0f64;
    for mode in [SdMode::Disabled, speculative] {
        let mut config = SimRolloutConfig::vanilla(cost.clone()).with_sd_mode(mode);
        let pass = |batch| match config.sd_mode {
            SdMode::Disabled => cost.decode_batch(batch),
            _ => cost.speculative_batch(
                &config.drafter,
                batch,
                strategy.draft_depth,
                strategy.tokens_to_verify,
            ),
        };
        let (batch, crossover) = (1..=12)
            .map(|b| 1 << b)
            .map(|batch| (batch, pass(batch).memory_bound_from()))
            .find(|&(_, from)| (700..100_000).contains(&from))
            .expect("a batch that crosses over");
        config.prompt_len = crossover - 600;
        let lengths = vec![2_000; batch];
        worst = worst.max(check_config(&config, &lengths));
    }
    eprintln!("largest relative error across the crossover: {worst:e}");
}

/// Every request finishes on the first step, in every mode and under every
/// acceptance: one-token responses, and for always-on speculation with every
/// draft accepted, responses as long as the first step's commit.
#[test]
fn engine_matches_oracle_when_every_request_finishes_on_the_first_step() {
    for mode in 0..6 {
        for acceptance in 0..ACCEPTANCES {
            for lengths in [vec![1], vec![1; 64]] {
                check_on(0, acceptance, &lengths, mode, 7);
            }
        }
    }
    let mut config = SimRolloutConfig::vanilla(deployment(0).0).with_sd_mode(sd_mode(3));
    config.acceptance = AcceptanceProfile::from_measured(vec![1.0; 16]);
    let SdMode::Static { strategy, .. } = config.sd_mode else {
        unreachable!("a static strategy")
    };
    let first = tlt_rollout::expected_accept_len(&config.acceptance, &strategy) as usize;
    assert!(first > 2, "{first} tokens on the first step");
    for lengths in [vec![first; 8], (1..=first).collect()] {
        assert_eq!(simulate_rollout(&config, &lengths).steps, 1);
        check_config(&config, &lengths);
    }
}

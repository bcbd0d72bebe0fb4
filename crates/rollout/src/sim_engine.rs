//! Timing-level rollout engine.
//!
//! Simulates the generation phase of one RL step for a *full-size* model (Qwen-7B/32B,
//! Llama-70B, ...) on a given GPU: a batch of requests with long-tail target lengths
//! is decoded with continuous batching, and the Adaptive SD Manager decides per step
//! whether to run vanilla decoding or speculative decoding (and with which strategy).
//! Kernel times come from the roofline cost model and acceptance lengths from the
//! drafter's [`AcceptanceProfile`], so the engine reproduces the paper's throughput
//! tables (2, 4), the hyperparameter sweeps (Figure 13, Table 1) and the adaptive-SD
//! case study (Figure 14).

use crate::sd_step::{expected_accept_len, SdMode, SdStepEvaluator, SdStepModel};
use crate::spec::SdStrategy;
use serde::{Deserialize, Serialize};
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::LlmCostModel;
use tlt_model::DraftModelSpec;

/// Configuration of a simulated rollout.
#[derive(Debug, Clone)]
pub struct SimRolloutConfig {
    /// Target-model cost model (model geometry + GPU + TP).
    pub cost: LlmCostModel,
    /// Drafter geometry.
    pub drafter: DraftModelSpec,
    /// Acceptance profile of the drafter against the current target.
    pub acceptance: AcceptanceProfile,
    /// Acceptance profile of the model-free drafter (used when the learned drafter
    /// is unavailable).
    pub model_free_acceptance: AcceptanceProfile,
    /// Prompt length per request.
    pub prompt_len: usize,
    /// SD usage mode.
    pub sd_mode: SdMode,
    /// RNG seed for the tuner's exploration.
    pub seed: u64,
}

impl SimRolloutConfig {
    /// A convenient baseline configuration (SD disabled).
    pub fn vanilla(cost: LlmCostModel) -> Self {
        let drafter = cost.model.eagle_drafter();
        SimRolloutConfig {
            cost,
            drafter,
            acceptance: AcceptanceProfile::adaptive_drafter(),
            model_free_acceptance: AcceptanceProfile::model_free_drafter(),
            prompt_len: 512,
            sd_mode: SdMode::Disabled,
            seed: 0,
        }
    }

    /// Same configuration with a different SD mode.
    pub fn with_sd_mode(mut self, mode: SdMode) -> Self {
        self.sd_mode = mode;
        self
    }

    /// The fixed inputs the SD-step evaluator costs this rollout's steps with.
    pub fn step_model(&self) -> SdStepModel<'_> {
        SdStepModel {
            cost: &self.cost,
            drafter: &self.drafter,
            acceptance: &self.acceptance,
            model_free_acceptance: &self.model_free_acceptance,
        }
    }
}

/// A point of the running-request timeline (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Simulated time in seconds.
    pub time_s: f64,
    /// Number of requests still generating.
    pub running_requests: usize,
    /// Whether speculative decoding was active during this step.
    pub sd_active: bool,
}

/// Result of simulating one rollout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RolloutProfile {
    /// Total rollout wall-clock time in seconds.
    pub total_time_s: f64,
    /// Total generated tokens across all requests.
    pub total_tokens: usize,
    /// Tokens per second across the whole rollout.
    pub throughput_tokens_per_s: f64,
    /// Simulated time at which SD first activated, if it ever did.
    pub sd_activation_time_s: Option<f64>,
    /// Per-step timeline (downsampled: one point per recorded step).
    pub timeline: Vec<TimelinePoint>,
    /// GPU-seconds of idle time accumulated by completed requests waiting for the
    /// longest request (the "under-utilised zone" harvested by the spot trainer).
    pub idle_request_seconds: f64,
    /// Mean accept length across speculative steps (1.0 when SD never ran).
    pub mean_accept_length: f64,
    /// Decode steps simulated.
    pub steps: u64,
    /// Decode steps that ran speculative decoding.
    pub speculative_steps: u64,
}

impl RolloutProfile {
    /// Speedup of this profile relative to `baseline` (total-time ratio).
    pub fn speedup_over(&self, baseline: &RolloutProfile) -> f64 {
        if self.total_time_s <= 0.0 {
            1.0
        } else {
            baseline.total_time_s / self.total_time_s
        }
    }
}

/// Whether `x` is a whole number of tokens (a cast, not a call into libm).
fn is_whole(x: f64) -> bool {
    (x as u64) as f64 == x
}

/// Simulates decoding a batch of requests whose response lengths are given.
///
/// The live requests are a suffix of one sorted array and share one progress
/// scalar; every step is decided, costed and recorded by the [`SdStepEvaluator`].
/// Host cost is therefore proportional to the decode steps simulated (plus, for a
/// step that commits a fractional number of tokens, the requests then live), not
/// to steps x requests, and nothing is allocated per step.
pub fn simulate_rollout(config: &SimRolloutConfig, response_lengths: &[usize]) -> RolloutProfile {
    simulate_rollout_seeded(config, config.seed, response_lengths)
}

/// [`simulate_rollout`] with the tuner's exploration drawn from `seed` in place of
/// `config.seed`, for callers that run one configuration under many seeds.
pub fn simulate_rollout_seeded(
    config: &SimRolloutConfig,
    seed: u64,
    response_lengths: &[usize],
) -> RolloutProfile {
    assert!(!response_lengths.is_empty(), "need at least one request");
    let requests = response_lengths.len();
    let mut remaining: Vec<f64> = response_lengths.iter().map(|&l| l.max(1) as f64).collect();
    remaining.sort_unstable_by(f64::total_cmp);
    // Every live request has received the same commits, `generated` in all, and has
    // `remaining[head..]` less `lag` to go: ascending, and f64 rounding is monotone,
    // so the requests a step finishes are a prefix. `lag` holds the whole-token
    // commits not yet subtracted: `x - lag` is exact for an integer `lag <= x < 2^53`.
    let (mut head, mut lag, mut generated) = (0, 0.0, 0.0f64);
    let total_target_tokens: usize = response_lengths.iter().sum();
    let model = config.step_model();
    let mut evaluator = SdStepEvaluator::new(&config.sd_mode, seed);

    let mut time_s = 0.0;
    let mut timeline = Vec::new();
    let mut sd_activation_time = None;
    let mut idle_request_seconds = 0.0;
    let mut accept_len_sum = 0.0;
    let mut speculative_steps = 0u64;
    let mut steps = 0u64;

    // Prompt prefill for the whole batch.
    time_s += config.cost.prefill_time(requests, config.prompt_len);

    while head < requests {
        let batch = requests - head;
        // The mean of `batch` copies of `generated`, summed one by one: exact, hence
        // `generated` itself, while every partial sum is an integer below 2^53.
        let mean_generated = if is_whole(generated) && generated * (batch as f64) < 9e15 {
            generated
        } else {
            (0..batch).fold(0.0, |sum, _| sum + generated) / batch as f64
        };
        let avg_context = config.prompt_len + mean_generated as usize;

        let step = evaluator.step(&model, batch, batch, avg_context, 1.0);
        if step.speculative {
            accept_len_sum += step.tokens_per_seq;
            speculative_steps += 1;
            if sd_activation_time.is_none() {
                sd_activation_time = Some(time_s);
            }
        }

        // Idle accounting: requests already finished wait for the stragglers.
        idle_request_seconds += head as f64 * step.time_s;

        let commit = step.tokens_per_seq;
        generated += commit;
        if is_whole(commit) {
            lag += commit;
        } else {
            // The rounding of each request's own chain of subtractions is kept.
            for left in &mut remaining[head..] {
                *left -= lag;
                *left -= commit.min(*left);
            }
            lag = 0.0;
        }
        while head < requests && remaining[head] <= lag {
            head += 1;
        }
        time_s += step.time_s;
        steps += 1;

        // Record a timeline point roughly every simulated second of progress (and on
        // every change of SD activation) to keep profiles compact.
        let record = timeline.last().is_none_or(|p: &TimelinePoint| {
            time_s - p.time_s > 1.0
                || p.sd_active != step.speculative
                || p.running_requests != batch
        });
        if record {
            timeline.push(TimelinePoint {
                time_s,
                running_requests: batch,
                sd_active: step.speculative,
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
        mean_accept_length: if speculative_steps == 0 {
            1.0
        } else {
            accept_len_sum / speculative_steps as f64
        },
        steps,
        speculative_steps,
    }
}

/// Simulates many independent rollouts on the shared worker pool
/// ([`tlt_model::parallel_map`]), one per response-length group.
///
/// Group `i` runs with `config.seed + i` so every group has an independent,
/// reproducible exploration stream; profiles are merged back in group order, making
/// the result identical to a sequential loop over [`simulate_rollout`] with the
/// same per-group seeds, regardless of worker count.
pub fn simulate_rollout_batch(
    config: &SimRolloutConfig,
    response_length_groups: &[Vec<usize>],
) -> Vec<RolloutProfile> {
    let groups: Vec<&[usize]> = response_length_groups.iter().map(Vec::as_slice).collect();
    tlt_model::parallel_map(groups, |i, lengths| {
        simulate_rollout_seeded(config, config.seed.wrapping_add(i as u64), lengths)
    })
}

/// Speedup of speculative decoding over vanilla decoding at a *fixed* batch size,
/// reproducing the grid of Table 4 / Figure 13(b): every request in the batch decodes
/// the same number of tokens, with and without SD.
pub fn fixed_batch_speedup(
    cost: &LlmCostModel,
    drafter: &DraftModelSpec,
    acceptance: &AcceptanceProfile,
    batch: usize,
    strategy: SdStrategy,
    context: usize,
) -> f64 {
    let accept = expected_accept_len(acceptance, &strategy);
    let vanilla_time_per_token = cost.decode_step_time(batch, context);
    let spec_time = cost.speculative_step_time(
        drafter,
        batch,
        strategy.draft_depth,
        strategy.tokens_to_verify,
        context,
    );
    accept * vanilla_time_per_token / spec_time
}

/// Rollout throughput (tokens/s) of a single request decoded to `response_len`
/// tokens with and without SD, reproducing Table 2's per-GPU comparison.
pub fn single_request_throughput(
    cost: &LlmCostModel,
    drafter: &DraftModelSpec,
    acceptance: &AcceptanceProfile,
    strategy: SdStrategy,
    prompt_len: usize,
    response_len: usize,
) -> (f64, f64) {
    let config_sd = SimRolloutConfig {
        cost: cost.clone(),
        drafter: drafter.clone(),
        acceptance: acceptance.clone(),
        model_free_acceptance: AcceptanceProfile::model_free_drafter(),
        prompt_len,
        sd_mode: SdMode::Static {
            strategy,
            threshold: usize::MAX,
        },
        seed: 0,
    };
    let config_vanilla = SimRolloutConfig {
        sd_mode: SdMode::Disabled,
        ..config_sd.clone()
    };
    let with_sd = simulate_rollout(&config_sd, &[response_len]);
    let without_sd = simulate_rollout(&config_vanilla, &[response_len]);
    (
        with_sd.throughput_tokens_per_s,
        without_sd.throughput_tokens_per_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SdManagerConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlt_gpusim::GpuType;
    use tlt_model::ModelSpec;
    use tlt_workload::LengthDistribution;

    fn qwen32b_cost() -> LlmCostModel {
        LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::H100.spec(), 4)
    }

    fn longtail_lengths(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = LengthDistribution::LongTailMixture {
            mu: 6.5,
            sigma: 0.8,
            truncation_mass: 0.03,
            max_len: 8192,
        };
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn adaptive_sd_beats_vanilla_on_longtail_batch() {
        let cost = qwen32b_cost();
        let lengths = longtail_lengths(128, 1);
        let vanilla = simulate_rollout(&SimRolloutConfig::vanilla(cost.clone()), &lengths);
        let adaptive = simulate_rollout(
            &SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Adaptive {
                config: SdManagerConfig::default(),
            }),
            &lengths,
        );
        let speedup = adaptive.speedup_over(&vanilla);
        assert!(
            speedup > 1.5,
            "adaptive SD should give a sizeable rollout speedup, got {speedup:.2}x"
        );
        assert!(adaptive.sd_activation_time_s.is_some());
        assert!(adaptive.mean_accept_length > 2.0);
    }

    #[test]
    fn sd_activates_only_after_batch_drains_below_threshold() {
        // Figure 14: with 128 requests the early phase runs without SD, and SD kicks
        // in once the running-request count crosses the elastic threshold.
        let cost = qwen32b_cost();
        let lengths = longtail_lengths(128, 2);
        let profile = simulate_rollout(
            &SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Adaptive {
                config: SdManagerConfig::default(),
            }),
            &lengths,
        );
        let activation = profile.sd_activation_time_s.expect("SD activated");
        assert!(activation > 0.0);
        // At activation time the running-request count must be at or below the threshold.
        let at_activation = profile
            .timeline
            .iter()
            .find(|p| p.sd_active)
            .expect("an SD-active timeline point");
        assert!(at_activation.running_requests <= 32);
        // Early timeline points (large batch) must not have SD active.
        assert!(profile
            .timeline
            .iter()
            .take_while(|p| p.running_requests > 32)
            .all(|p| !p.sd_active));
    }

    #[test]
    fn running_requests_monotonically_decrease() {
        let cost = qwen32b_cost();
        let lengths = longtail_lengths(64, 3);
        let profile = simulate_rollout(&SimRolloutConfig::vanilla(cost), &lengths);
        let mut prev = usize::MAX;
        for p in &profile.timeline {
            assert!(p.running_requests <= prev);
            prev = p.running_requests;
        }
        assert!(profile.idle_request_seconds > 0.0);
    }

    #[test]
    fn table4_shape_speedup_decreases_with_batch_size() {
        let cost = qwen32b_cost();
        let drafter = cost.model.eagle_drafter();
        let acceptance = AcceptanceProfile::adaptive_drafter();
        let strategy = SdStrategy {
            draft_depth: 10,
            top_k: 8,
            tokens_to_verify: 48,
        };
        let s1 = fixed_batch_speedup(&cost, &drafter, &acceptance, 1, strategy, 4096);
        let s8 = fixed_batch_speedup(&cost, &drafter, &acceptance, 8, strategy, 4096);
        let s32 = fixed_batch_speedup(&cost, &drafter, &acceptance, 32, strategy, 4096);
        assert!(s1 > s8, "bs1 {s1:.2} should beat bs8 {s8:.2}");
        assert!(s8 > s32, "bs8 {s8:.2} should beat bs32 {s32:.2}");
        assert!(s1 > 2.0, "bs=1 speedup should be >2x, got {s1:.2}");
        assert!(s32 > 1.0, "SD should still help at bs=32, got {s32:.2}");
    }

    #[test]
    fn table4_shape_large_batches_prefer_fewer_verify_tokens() {
        let cost = qwen32b_cost();
        let drafter = cost.model.eagle_drafter();
        let acceptance = AcceptanceProfile::adaptive_drafter();
        let mk = |verify| SdStrategy {
            draft_depth: 10,
            top_k: 8,
            tokens_to_verify: verify,
        };
        // At batch 32 a small verification budget wins; at batch 1 a large one wins.
        let small_batch_big_verify =
            fixed_batch_speedup(&cost, &drafter, &acceptance, 1, mk(64), 4096);
        let small_batch_small_verify =
            fixed_batch_speedup(&cost, &drafter, &acceptance, 1, mk(16), 4096);
        assert!(small_batch_big_verify > small_batch_small_verify);
        let big_batch_big_verify =
            fixed_batch_speedup(&cost, &drafter, &acceptance, 32, mk(64), 4096);
        let big_batch_small_verify =
            fixed_batch_speedup(&cost, &drafter, &acceptance, 32, mk(16), 4096);
        assert!(big_batch_small_verify > big_batch_big_verify);
    }

    #[test]
    fn table2_shape_weaker_gpus_gain_more() {
        let spec = ModelSpec::qwen2_5_7b();
        let strategy = SdStrategy {
            draft_depth: 8,
            top_k: 8,
            tokens_to_verify: 48,
        };
        let acceptance = AcceptanceProfile::adaptive_drafter();
        let ratio = |gpu: GpuType| {
            let cost = LlmCostModel::new(spec.clone(), gpu.spec(), 1);
            let drafter = cost.model.eagle_drafter();
            let (with_sd, without) =
                single_request_throughput(&cost, &drafter, &acceptance, strategy, 256, 2048);
            with_sd / without
        };
        let h100 = ratio(GpuType::H100);
        let rtx3090 = ratio(GpuType::Rtx3090);
        assert!(h100 > 1.8, "H100 SD speedup {h100:.2}");
        assert!(
            rtx3090 > h100,
            "3090 {rtx3090:.2} should gain more than H100 {h100:.2}"
        );
    }

    #[test]
    fn static_sd_with_threshold_behaves_like_elastic() {
        let cost = qwen32b_cost();
        let lengths = longtail_lengths(64, 4);
        let static_mode = SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Static {
            strategy: SdStrategy::default(),
            threshold: 16,
        });
        let profile = simulate_rollout(&static_mode, &lengths);
        for p in profile.timeline.iter().filter(|p| p.sd_active) {
            assert!(p.running_requests <= 16);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cost = qwen32b_cost();
        let lengths = longtail_lengths(32, 5);
        let config = SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
        let a = simulate_rollout(&config, &lengths);
        let b = simulate_rollout(&config, &lengths);
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.timeline.len(), b.timeline.len());
    }

    #[test]
    fn batch_simulation_matches_sequential_per_group_seeds() {
        let cost = qwen32b_cost();
        let config = SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
        let groups: Vec<Vec<usize>> = (0..4).map(|i| longtail_lengths(16, 10 + i)).collect();
        let parallel = simulate_rollout_batch(&config, &groups);
        assert_eq!(parallel.len(), groups.len());
        for (i, group) in groups.iter().enumerate() {
            let sequential =
                simulate_rollout_seeded(&config, config.seed.wrapping_add(i as u64), group);
            assert_eq!(parallel[i].total_time_s, sequential.total_time_s);
            assert_eq!(parallel[i].total_tokens, sequential.total_tokens);
            assert_eq!(parallel[i].timeline.len(), sequential.timeline.len());
        }
    }

    #[test]
    fn random_lengths_never_break_accounting() {
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::A100.spec(), 1);
        let mut rng = StdRng::seed_from_u64(9);
        let lengths: Vec<usize> = (0..16).map(|_| rng.gen_range(1..2000)).collect();
        let profile = simulate_rollout(&SimRolloutConfig::vanilla(cost), &lengths);
        assert_eq!(profile.total_tokens, lengths.iter().sum::<usize>());
        assert!(profile.total_time_s > 0.0);
        assert!(profile.throughput_tokens_per_s > 0.0);
    }
}

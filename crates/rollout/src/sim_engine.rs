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
//!
//! Between two finishes every step of a rollout is a known function of the batch,
//! the context and the evaluator's fixed-point carry, unless the SD tuner learns
//! from it, which no [`SdMode`] makes it do. The engine therefore advances a run of
//! steps per loop iteration (`SdStepEvaluator::run`): the steps up to the next
//! finish or to [`MAX_SIM_STEPS`], whose tokens and time are closed forms (a
//! floor-sum of the contexts for a fractional accept length). The Figure 14
//! timeline is a side output: [`simulate_rollout`] finds its points inside each
//! run, [`simulate_rollout_seeded`] records none, and no other field of the
//! profile depends on it. Host cost is proportional to finishes and learning
//! steps (plus timeline points, where recorded), not to decode steps; times
//! match a per-step sum up to summation order (within 1e-12 relative, held by
//! `tests/sim_engine_oracle.rs`).

use crate::sd_step::{expected_accept_len, SdMode, SdRun, SdStepEvaluator, SdStepModel};
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
    /// Per-step timeline (downsampled: one point per recorded step); empty
    /// from [`simulate_rollout_seeded`], which records none.
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
    /// Runs the engine advanced, one loop iteration each: one per step on
    /// which requests finish, one per learning step, and the run the safety
    /// valve stops. The timeline never adds one.
    pub runs: u64,
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

/// The safety valve against pathological configurations: a rollout stops once
/// it has simulated more decode steps than this (at step 20,000,001), finished
/// or not.
pub const MAX_SIM_STEPS: u64 = 20_000_000;

/// Simulated seconds between two timeline points of an unchanged batch and SD
/// state: a step is recorded when the time since the last point exceeds this
/// (and on every change of the running-request count or of SD activation).
/// It shapes only [`RolloutProfile::timeline`]: the points are found inside a
/// run, so no step, count or time of a profile depends on it.
pub const TIMELINE_INTERVAL_S: f64 = 1.0;

/// Simulates decoding a batch of requests whose response lengths are given,
/// recording the Figure 14 timeline.
///
/// Every step commits the same whole number of tokens to every live request, so
/// the live requests are a suffix of one sorted array and their shared progress
/// is one integer. Steps advance a run at a time (`SdStepEvaluator::run`): the
/// steps up to the next finish or to [`MAX_SIM_STEPS`] cost and commit in
/// closed form unless their decision learns, which no [`SdMode`] does (each
/// tuner bucket of its default strategy set has one arm, so no step draws from
/// the seed either). The timeline's points are searched for inside each run and
/// never end one, so every field but `timeline` equals what
/// [`simulate_rollout_seeded`] returns at `config.seed`. Host cost is
/// proportional to finishes, learning steps and timeline points, not to decode
/// steps, and nothing is allocated per step.
pub fn simulate_rollout(config: &SimRolloutConfig, response_lengths: &[usize]) -> RolloutProfile {
    simulate(config, config.seed, response_lengths, true)
}

/// [`simulate_rollout`] without the timeline (`timeline` is empty) and with
/// the tuner's exploration drawn from `seed` in place of `config.seed`, for
/// callers that run one configuration under many seeds and read only the
/// totals: `run_experiment` is one, and drops the timeline. Host cost is one
/// loop iteration per run ([`RolloutProfile::runs`]).
///
/// Under every [`SdMode`] no step learns or draws, so the profile does not
/// depend on the seed (a test pins this); a tuner with a multi-arm bucket
/// would make it depend, and would take its steps there one at a time.
pub fn simulate_rollout_seeded(
    config: &SimRolloutConfig,
    seed: u64,
    response_lengths: &[usize],
) -> RolloutProfile {
    simulate(config, seed, response_lengths, false)
}

/// The engine behind both public entry points: one iteration per run, from
/// one finish to the next (or to the valve, or over one learning step). The
/// timeline, when wanted, is a side output of each run.
fn simulate(
    config: &SimRolloutConfig,
    seed: u64,
    response_lengths: &[usize],
    record_timeline: bool,
) -> RolloutProfile {
    assert!(!response_lengths.is_empty(), "need at least one request");
    let requests = response_lengths.len();
    let mut remaining: Vec<usize> = response_lengths.iter().map(|&l| l.max(1)).collect();
    remaining.sort_unstable();
    // Every live request has `generated` tokens: the requests a step finishes are
    // a prefix of `remaining[head..]`.
    let (mut head, mut generated) = (0, 0);
    let total_target_tokens: usize = response_lengths.iter().sum();
    let model = config.step_model();
    let mut evaluator = SdStepEvaluator::new(&config.sd_mode, seed);

    let mut time_s = 0.0;
    let mut timeline: Vec<TimelinePoint> = Vec::new();
    let mut sd_activation_time = None;
    let mut idle_request_seconds = 0.0;
    let mut accept_len_sum = 0.0;
    let mut speculative_steps = 0u64;
    let mut steps = 0u64;
    let mut runs = 0u64;

    // Prompt prefill for the whole batch.
    time_s += config.cost.prefill_time(requests, config.prompt_len);

    while head < requests {
        let batch = requests - head;
        let run = evaluator.run(&model, batch, batch, config.prompt_len + generated);
        // The run ends at the next finish or at the valve (or after its one
        // step, if it learns).
        let n = run
            .steps_for(remaining[head] - generated)
            .min(MAX_SIM_STEPS + 1 - steps)
            .min(run.max_steps());
        if record_timeline {
            record_points(&mut timeline, &run, n, batch, time_s);
        }
        let run_s = run.time(n);
        if run.speculative {
            accept_len_sum += run.accept_len * n as f64;
            speculative_steps += n;
            if sd_activation_time.is_none() {
                sd_activation_time = Some(time_s);
            }
        }

        // Idle accounting: requests already finished wait for the stragglers.
        idle_request_seconds += head as f64 * run_s;

        generated += run.tokens_after(n);
        while head < requests && remaining[head] <= generated {
            head += 1;
        }
        time_s += run_s;
        steps += n;
        runs += 1;
        evaluator.commit(&run, n);
        if steps > MAX_SIM_STEPS {
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
        runs,
    }
}

/// Appends the timeline points (Figure 14) that fall inside a run of `steps`
/// steps of a `batch` that starts at `start_s`: its first step if the batch or
/// the SD state changed since the last point, then every step after which more
/// than [`TIMELINE_INTERVAL_S`] has passed since the last point. A point after
/// step `j` is at `start_s + run.time(j)`.
fn record_points(
    timeline: &mut Vec<TimelinePoint>,
    run: &SdRun,
    steps: u64,
    batch: usize,
    start_s: f64,
) {
    let point = |j| TimelinePoint {
        time_s: start_s + run.time(j),
        running_requests: batch,
        sd_active: run.speculative,
    };
    let mut last_s = match timeline.last() {
        Some(p) if p.running_requests == batch && p.sd_active == run.speculative => p.time_s,
        _ => {
            let first = point(1);
            timeline.push(first);
            first.time_s
        }
    };
    loop {
        let guess = run.steps_within(last_s + TIMELINE_INTERVAL_S - start_s);
        let Some(j) = first_step_past(steps, guess, |j| {
            start_s + run.time(j) - last_s > TIMELINE_INTERVAL_S
        }) else {
            break;
        };
        let next = point(j);
        timeline.push(next);
        last_s = next.time_s;
    }
}

/// The first `j` in `1..=limit` with `past(j)`, for a `past` that is false at 0
/// and stays true once true, or `None` if `past(limit)` is false. Starts at the
/// step `guess` rounds down to plus one and confirms it against `j - 1` and
/// `j`; a guess that is off gallops to the answer in O(log) of its error.
fn first_step_past(limit: u64, guess: f64, past: impl Fn(u64) -> bool) -> Option<u64> {
    // Saturating: a NaN guess is step 1.
    let guess = (guess as u64).saturating_add(1).clamp(1, limit);
    // `past(below)` is false and `past(above)` true.
    let (mut below, mut above);
    if past(guess) {
        above = guess;
        let mut stride = 1;
        loop {
            if above <= stride {
                below = 0;
                break;
            }
            if past(above - stride) {
                above -= stride;
                stride *= 2;
            } else {
                below = above - stride;
                break;
            }
        }
    } else {
        below = guess;
        let mut stride = 1;
        loop {
            if below == limit {
                return None;
            }
            let probe = below.saturating_add(stride).min(limit);
            if past(probe) {
                above = probe;
                break;
            }
            below = probe;
            stride *= 2;
        }
    }
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if past(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    Some(above)
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
    let with_sd = simulate_rollout_seeded(&config_sd, 0, &[response_len]);
    let without_sd = simulate_rollout_seeded(&config_vanilla, 0, &[response_len]);
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

    /// No `SdMode` learns or draws from the seed (every tuner bucket of the
    /// default strategy set has one arm), so runs advance in closed form; a
    /// multi-arm default would fail here first.
    #[test]
    fn profiles_do_not_depend_on_the_seed_in_any_mode() {
        let lengths = longtail_lengths(96, 6);
        let adaptive = |learned_drafter_available| SdMode::Adaptive {
            config: SdManagerConfig {
                learned_drafter_available,
                ..SdManagerConfig::default()
            },
        };
        let modes = [
            SdMode::Disabled,
            SdMode::Static {
                strategy: SdStrategy::default(),
                threshold: 32,
            },
            adaptive(true),
            adaptive(false),
        ];
        for mode in modes {
            let config = SimRolloutConfig::vanilla(qwen32b_cost()).with_sd_mode(mode);
            let a = simulate(&config, 1, &lengths, true);
            let b = simulate(&config, 0xDEAD_BEEF, &lengths, true);
            assert!(!a.timeline.is_empty());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{:?}", config.sd_mode);
        }
    }

    /// Recording the timeline never cuts a run: with and without it, every
    /// other field is `{:?}`-equal, bit for bit, in every mode, on ties, on
    /// all-equal lengths, across the compute/memory crossover and at the valve.
    #[test]
    fn the_timeline_is_a_pure_side_output() {
        let adaptive = |learned_drafter_available| SdMode::Adaptive {
            config: SdManagerConfig {
                learned_drafter_available,
                ..SdManagerConfig::default()
            },
        };
        let always_on = SdMode::Static {
            strategy: SdStrategy::default(),
            threshold: usize::MAX,
        };
        let modes = [
            SdMode::Disabled,
            SdMode::Static {
                strategy: SdStrategy::default(),
                threshold: 32,
            },
            always_on.clone(),
            adaptive(true),
            adaptive(false),
        ];
        let tied: Vec<usize> = (0..96).map(|i| [700, 1500, 1500, 6000][i % 4]).collect();
        let length_sets = [longtail_lengths(96, 7), tied, vec![3000; 48]];
        let check = |config: &SimRolloutConfig, lengths: &[usize]| {
            let mut with = simulate(config, config.seed, lengths, true);
            let without = simulate(config, config.seed, lengths, false);
            assert!(!with.timeline.is_empty());
            assert!(without.timeline.is_empty());
            with.timeline.clear();
            assert_eq!(
                format!("{with:?}"),
                format!("{without:?}"),
                "{:?} on {} requests",
                config.sd_mode,
                lengths.len()
            );
        };
        for mode in &modes {
            let config = SimRolloutConfig::vanilla(qwen32b_cost()).with_sd_mode(mode.clone());
            for lengths in &length_sets {
                check(&config, lengths);
            }
        }
        // The prompt 600 positions below the first memory-bound context of a
        // vanilla and of a speculative pass, so the crossover falls in a run.
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
        for mode in [SdMode::Disabled, always_on] {
            let mut config = SimRolloutConfig::vanilla(cost.clone()).with_sd_mode(mode);
            let strategy = SdStrategy::default();
            let (batch, crossover) = (1..=12)
                .map(|b| 1usize << b)
                .map(|batch| {
                    let pass = match config.sd_mode {
                        SdMode::Disabled => cost.decode_batch(batch),
                        _ => cost.speculative_batch(
                            &config.drafter,
                            batch,
                            strategy.draft_depth,
                            strategy.tokens_to_verify,
                        ),
                    };
                    (batch, pass.memory_bound_from())
                })
                .find(|&(_, from)| (700..100_000).contains(&from))
                .expect("a batch that crosses over");
            config.prompt_len = crossover - 600;
            check(&config, &vec![2_000; batch]);
        }
        // One response the valve stops, 20,000,001 steps in one run.
        let valve = SimRolloutConfig::vanilla(cost);
        check(&valve, &[25_000_000]);
        assert_eq!(simulate(&valve, 0, &[25_000_000], false).runs, 1);
    }

    /// One 25M-token response stops at the valve, at step 20,000,001.
    #[test]
    fn one_long_response_stops_at_the_safety_valve() {
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
        let profile = simulate_rollout(&SimRolloutConfig::vanilla(cost), &[25_000_000]);
        assert_eq!(profile.steps, MAX_SIM_STEPS + 1);
        assert_eq!(profile.steps, 20_000_001);
        assert_eq!(profile.total_tokens, 25_000_000);
        let last = profile.timeline.last().expect("timeline points");
        assert!(last.time_s <= profile.total_time_s);
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

//! The SD-step evaluator: the one owner of a timing-level decode step.
//!
//! Both timing-level simulators (the rollout engine of [`crate::sim_engine`] and
//! `tlt-serve`'s replicas) advance by the same per-step sequence: dispatch on the
//! [`SdMode`], pick a drafter and strategy, look up the expected accept length,
//! cost the step on the roofline model, and feed the outcome back to the
//! [`AdaptiveSdManager`]. [`SdStepEvaluator`] runs that sequence; the simulators
//! keep only what differs between them (which load the elastic decision sees, the
//! batch bookkeeping, their own statistics).
//!
//! A speculative step commits a whole number of tokens to every sequence, as a
//! real SD round does: `n = floor(carry + E[accept])`, the remainder carried into
//! the next step (error diffusion). `n >= 1` because of the bonus token, and after
//! any number of steps the tokens committed are the integer part of the exact sum
//! of the expected accept lengths, so their long-run mean is `E[accept]`. The
//! tuner and the caller's statistics see `E[accept]` itself.
//!
//! The expected accept length is a pure function of (drafter profile, strategy),
//! so the evaluator keeps one memo slot per (drafter, tuner arm), filled the first
//! time the pair runs; the tuner decides and records by arm index. Beside the
//! accept length, and for the vanilla step, it keeps the batch-only half of the
//! step cost ([`StepBatch`]) and rebuilds a half only when it is asked to cost a
//! different batch.

use crate::mab::StepObservation;
use crate::manager::{AdaptiveSdManager, DrafterChoice, SdManagerConfig};
use crate::spec::SdStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::{LlmCostModel, StepBatch};
use tlt_model::DraftModelSpec;

/// How a timing-level engine uses speculative decoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SdMode {
    /// Vanilla decoding only (the VeRL-like baseline).
    Disabled,
    /// A single static strategy applied whenever the batch is below the threshold.
    Static {
        /// The strategy to apply.
        strategy: SdStrategy,
        /// Elastic activation threshold (requests).
        threshold: usize,
    },
    /// Full adaptive behaviour: elastic activation + BEG-MAB strategy selection.
    Adaptive {
        /// Manager configuration.
        config: SdManagerConfig,
    },
}

/// Expected accepted tokens per speculative step of `strategy` under `profile`.
pub fn expected_accept_len(profile: &AcceptanceProfile, strategy: &SdStrategy) -> f64 {
    profile.expected_accept_len_tree(
        strategy.draft_depth,
        strategy.top_k,
        strategy.tokens_to_verify,
    )
}

/// The fixed inputs of a deployment's decode steps, borrowed from the
/// configuration that owns them.
#[derive(Debug, Clone, Copy)]
pub struct SdStepModel<'a> {
    /// Target-model cost model (model geometry + GPU + TP).
    pub cost: &'a LlmCostModel,
    /// Drafter geometry.
    pub drafter: &'a DraftModelSpec,
    /// Acceptance profile of the learned drafter against the current target.
    pub acceptance: &'a AcceptanceProfile,
    /// Acceptance profile of the model-free fallback drafter.
    pub model_free_acceptance: &'a AcceptanceProfile,
}

/// One evaluated decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdStep {
    /// Step duration in seconds (already multiplied by the caller's time scale).
    pub time_s: f64,
    /// Whole tokens committed to every running sequence: 1 for a vanilla step,
    /// the carried integer part of the expected accept length for a speculative one.
    pub tokens: usize,
    /// Expected accept length of the step (`1.0` for a vanilla one): what the
    /// tuner observed and what accept-length statistics average.
    pub accept_len: f64,
    /// Whether the step ran speculative decoding.
    pub speculative: bool,
}

/// Fractional bits of the commit carry: every `f64` at or above 1 is an integer
/// multiple of 2^-52, so the carry adds accept lengths exactly.
const CARRY_BITS: u32 = 52;

/// An [`SdMode`] with the state it needs to be executed.
#[derive(Debug, Clone)]
enum Policy {
    Disabled,
    Static {
        strategy: SdStrategy,
        threshold: usize,
    },
    /// Boxed: an evaluator sits inline in every serving replica, retired ones
    /// included, and the tuner would be 200 of its bytes.
    Adaptive(Box<AdaptiveSdManager>),
}

/// Decides, costs and records decode steps for one engine instance.
///
/// An evaluator serves **one** [`SdStepModel`]: its memo of accept lengths and
/// step costs assumes every [`step`](Self::step) call names the same model.
#[derive(Debug, Clone)]
pub struct SdStepEvaluator {
    policy: Policy,
    rng: StdRng,
    /// Expected accept length of (drafter, arm) at slot `2 * arm + drafter`, the
    /// same in carry units, and the arm's step cost at the last batch it ran on;
    /// sized at construction, so an evaluator with SD disabled has none.
    accept_memo: Vec<Option<(f64, u64, StepBatch)>>,
    /// The vanilla step's cost at the last batch it ran on.
    vanilla: Option<StepBatch>,
    /// The fraction of a token the speculative steps so far have not committed,
    /// in units of 2^-[`CARRY_BITS`]: always below one token.
    carry: u64,
}

impl SdStepEvaluator {
    /// An evaluator for `mode` whose strategy exploration draws from `seed`.
    pub fn new(mode: &SdMode, seed: u64) -> Self {
        let policy = match mode {
            SdMode::Disabled => Policy::Disabled,
            SdMode::Static {
                strategy,
                threshold,
            } => Policy::Static {
                strategy: *strategy,
                threshold: *threshold,
            },
            SdMode::Adaptive { config } => {
                Policy::Adaptive(Box::new(AdaptiveSdManager::new(*config)))
            }
        };
        Self::with_policy(policy, seed)
    }

    /// An adaptive evaluator driven by `manager` (whose tuner may hold a
    /// caller's strategy set), drawing from `seed`.
    pub fn with_manager(manager: AdaptiveSdManager, seed: u64) -> Self {
        Self::with_policy(Policy::Adaptive(Box::new(manager)), seed)
    }

    fn with_policy(policy: Policy, seed: u64) -> Self {
        let arms = match &policy {
            Policy::Disabled => 0,
            Policy::Static { .. } => 1,
            Policy::Adaptive(manager) => manager.selector.arms.len(),
        };
        SdStepEvaluator {
            policy,
            rng: StdRng::seed_from_u64(seed),
            accept_memo: vec![None; 2 * arms],
            vanilla: None,
            carry: 0,
        }
    }

    /// Evaluates the next decode step of `batch` running sequences at mean
    /// context `avg_context`. `load` is the request count the elastic SD
    /// decision sees (the batch itself for a rollout, batch plus backlog for a
    /// serving replica); `time_scale` multiplies the step duration before the
    /// tuner observes it (`1.0` unless the caller models a straggler).
    ///
    /// Inlined into the caller's step loop: the vanilla path is a few dozen
    /// instructions, and the call cost a quarter of `paper_sim`'s host time.
    #[inline]
    pub fn step(
        &mut self,
        model: &SdStepModel<'_>,
        load: usize,
        batch: usize,
        avg_context: usize,
        time_scale: f64,
    ) -> SdStep {
        let decision = match &mut self.policy {
            Policy::Disabled => None,
            Policy::Static { threshold, .. } => {
                (load <= *threshold).then_some((DrafterChoice::Learned, 0, false))
            }
            Policy::Adaptive(manager) => manager.decide_arm(load, &mut self.rng),
        };
        let Some((drafter, arm, learns)) = decision else {
            let cost = match &mut self.vanilla {
                Some(cost) if cost.batch == batch => cost,
                stale => stale.insert(model.cost.decode_batch(batch)),
            };
            return SdStep {
                time_s: cost.time(avg_context) * time_scale,
                tokens: 1,
                accept_len: 1.0,
                speculative: false,
            };
        };
        let slot = 2 * arm + drafter as usize;
        if !matches!(&self.accept_memo[slot], Some((.., cost)) if cost.batch == batch) {
            self.refill(model, drafter, arm, batch);
        }
        let Some((accept, units, cost)) = &self.accept_memo[slot] else {
            unreachable!("the slot was just filled")
        };
        let (accept, time_s) = (*accept, cost.time(avg_context) * time_scale);
        // Whole tokens leave the carry; the fraction stays.
        let total = self.carry + units;
        self.carry = total & ((1 << CARRY_BITS) - 1);
        if let (true, Policy::Adaptive(manager)) = (learns, &mut self.policy) {
            manager.selector.record_arm(
                arm,
                StepObservation {
                    elapsed_s: time_s,
                    accepted_tokens: (accept - 1.0) * batch as f64,
                    batch_size: batch,
                },
            );
        }
        SdStep {
            time_s,
            tokens: (total >> CARRY_BITS) as usize,
            accept_len: accept,
            speculative: true,
        }
    }

    /// Fills the memo slot of (drafter, arm) for `batch`: the accept length (and
    /// the same in carry units) on first use, the step cost whenever the batch
    /// changed.
    #[cold]
    fn refill(
        &mut self,
        model: &SdStepModel<'_>,
        drafter: DrafterChoice,
        arm: usize,
        batch: usize,
    ) {
        let strategy = match &self.policy {
            Policy::Static { strategy, .. } => *strategy,
            Policy::Adaptive(manager) => manager.selector.arms[arm],
            Policy::Disabled => unreachable!("a disabled evaluator never speculates"),
        };
        let (depth, verify) = (strategy.draft_depth, strategy.tokens_to_verify);
        let cost = model
            .cost
            .speculative_batch(model.drafter, batch, depth, verify);
        let slot = &mut self.accept_memo[2 * arm + drafter as usize];
        let (.., cached) = slot.get_or_insert_with(|| {
            let profile = match drafter {
                DrafterChoice::Learned => model.acceptance,
                DrafterChoice::ModelFree => model.model_free_acceptance,
            };
            let accept = expected_accept_len(profile, &strategy);
            assert!(
                (1.0..2048.0).contains(&accept),
                "accept length {accept} out of range"
            );
            // Exact: `accept >= 1` is a multiple of 2^-52 below 2^11.
            (accept, (accept * (1u64 << CARRY_BITS) as f64) as u64, cost)
        });
        *cached = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_engine::SimRolloutConfig;
    use tlt_gpusim::GpuType;
    use tlt_model::ModelSpec;

    /// `SimRolloutConfig::vanilla` owns the four inputs an `SdStepModel` borrows.
    fn fixture() -> SimRolloutConfig {
        SimRolloutConfig::vanilla(LlmCostModel::new(
            ModelSpec::qwen2_5_7b(),
            GpuType::H100.spec(),
            1,
        ))
    }

    #[test]
    fn disabled_mode_costs_a_vanilla_decode_step() {
        let fx = fixture();
        let mut eval = SdStepEvaluator::new(&SdMode::Disabled, 0);
        let step = eval.step(&fx.step_model(), 4, 4, 1024, 1.0);
        assert_eq!(
            step,
            SdStep {
                time_s: fx.cost.decode_step_time(4, 1024),
                tokens: 1,
                accept_len: 1.0,
                speculative: false,
            }
        );
    }

    #[test]
    fn static_mode_gates_on_load_and_costs_on_batch() {
        let fx = fixture();
        let strategy = SdStrategy::default();
        let mode = SdMode::Static {
            strategy,
            threshold: 8,
        };
        let mut eval = SdStepEvaluator::new(&mode, 0);
        // Batch 4 with a backlog that lifts the load over the threshold.
        assert!(!eval.step(&fx.step_model(), 9, 4, 1024, 1.0).speculative);
        let step = eval.step(&fx.step_model(), 8, 4, 1024, 2.0);
        assert!(step.speculative);
        let accept = expected_accept_len(&fx.acceptance, &strategy);
        assert_eq!(step.accept_len.to_bits(), accept.to_bits());
        assert_eq!(
            step.tokens, accept as usize,
            "the first commit carries from zero"
        );
        let unscaled = fx.cost.speculative_step_time(
            &fx.drafter,
            4,
            strategy.draft_depth,
            strategy.tokens_to_verify,
            1024,
        );
        assert_eq!(step.time_s.to_bits(), (unscaled * 2.0).to_bits());
    }

    #[test]
    fn memoised_accept_lengths_equal_direct_evaluation_for_both_drafters() {
        let fx = fixture();
        for learned in [true, false] {
            let mode = SdMode::Adaptive {
                config: SdManagerConfig {
                    // High enough for the batch sweep to reach every arm's bucket.
                    elastic_threshold: 64,
                    learned_drafter_available: learned,
                    ..SdManagerConfig::default()
                },
            };
            let profile = if learned {
                &fx.acceptance
            } else {
                &fx.model_free_acceptance
            };
            let mut eval = SdStepEvaluator::new(&mode, 3);
            // Two sweeps over every batch bucket: the second is served from the memo.
            for batch in (1..=64).chain(1..=64) {
                let step = eval.step(&fx.step_model(), batch, batch, 2048, 1.0);
                assert!(step.speculative);
                let direct = SdStrategy::default_set()
                    .iter()
                    .map(|s| expected_accept_len(profile, s).to_bits())
                    .any(|bits| bits == step.accept_len.to_bits());
                assert!(direct, "batch {batch}: accept {}", step.accept_len);
            }
            let filled = eval.accept_memo.iter().filter(|slot| slot.is_some());
            assert_eq!(filled.count(), SdStrategy::default_set().len());
        }
    }

    #[test]
    fn commits_are_the_integer_part_of_the_exact_accept_sum() {
        let fx = fixture();
        let mode = SdMode::Adaptive {
            config: SdManagerConfig {
                elastic_threshold: 16,
                ..SdManagerConfig::default()
            },
        };
        let mut eval = SdStepEvaluator::new(&mode, 11);
        // The sum of the accept lengths in units of 2^-52, where it is exact.
        let (mut exact, mut committed) = (0u128, 0u128);
        let (mut arms, mut vanilla) = (Vec::new(), 0);
        for i in 0..10_000usize {
            // The load sweeps across the threshold: vanilla and speculative
            // stretches, and the tuner exploring every arm on the way.
            let load = 1 + (i * 7) % 40;
            let step = eval.step(&fx.step_model(), load, load, 1024, 1.0);
            assert!(step.tokens >= 1, "step {i}");
            assert!(eval.carry < 1 << CARRY_BITS, "step {i}");
            exact += (step.accept_len * (1u64 << CARRY_BITS) as f64) as u128;
            committed += step.tokens as u128;
            assert_eq!(committed, exact >> CARRY_BITS, "step {i}");
            if !step.speculative {
                vanilla += 1;
            } else if !arms.contains(&step.accept_len.to_bits()) {
                arms.push(step.accept_len.to_bits());
            }
        }
        assert!((1_000..9_000).contains(&vanilla), "{vanilla} vanilla steps");
        assert!(arms.len() >= 2, "the tuner switched arms: {arms:?}");
        assert!(arms.iter().any(|&a| f64::from_bits(a).fract() != 0.0));
    }

    /// A strategy outside the tuner's arm table, a static one, is evaluated to
    /// the direct accept length, from its own one-arm table.
    #[test]
    fn pairs_beyond_the_memo_table_are_still_evaluated() {
        let fx = fixture();
        for depth in 1..=16 {
            let strategy = SdStrategy {
                draft_depth: depth,
                top_k: 3,
                ..SdStrategy::default()
            };
            assert!(!SdStrategy::default_set().contains(&strategy));
            let mode = SdMode::Static {
                strategy,
                threshold: 8,
            };
            let mut eval = SdStepEvaluator::new(&mode, 0);
            for batch in [4, 4, 6] {
                let step = eval.step(&fx.step_model(), batch, batch, 1024, 1.0);
                assert_eq!(
                    step.accept_len.to_bits(),
                    expected_accept_len(&fx.acceptance, &strategy).to_bits()
                );
            }
            assert_eq!(eval.accept_memo.len(), 2, "one arm, two drafters");
        }
    }
}

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
//! The expected accept length is a pure function of (drafter profile, strategy)
//! and a run meets only a handful of such pairs, so the evaluator remembers each
//! one the first time it is asked for it. Beside it, and for the vanilla step, it
//! keeps the batch-only half of the step cost ([`StepBatch`]) and rebuilds a half
//! only when it is asked to cost a different batch.

use crate::mab::StepObservation;
use crate::manager::{AdaptiveSdManager, DrafterChoice, SdDecision, SdManagerConfig};
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
    /// Tokens committed to every running sequence: the expected accept length of
    /// a speculative step, `1.0` for a vanilla one.
    pub tokens_per_seq: f64,
    /// Whether the step ran speculative decoding.
    pub speculative: bool,
}

/// Capacity of the accept-length table: the default strategy set has four arms
/// and there are two drafters.
const ACCEPT_MEMO_SLOTS: usize = 8;

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
    /// Expected accept length per (drafter, strategy) met so far, beside the
    /// strategy's step cost at the last batch it ran on; allocated at the first
    /// speculative step, so an engine that never speculates carries an empty `Vec`.
    accept_memo: Vec<(DrafterChoice, SdStrategy, f64, StepBatch)>,
    /// The vanilla step's cost at the last batch it ran on.
    vanilla: Option<StepBatch>,
}

impl SdStepEvaluator {
    /// An evaluator for `mode` whose strategy exploration draws from `seed`.
    pub fn new(mode: &SdMode, seed: u64) -> Self {
        SdStepEvaluator {
            policy: match mode {
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
            },
            rng: StdRng::seed_from_u64(seed),
            accept_memo: Vec::new(),
            vanilla: None,
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
            Policy::Disabled => SdDecision::Vanilla,
            Policy::Static {
                strategy,
                threshold,
            } => {
                if load <= *threshold {
                    SdDecision::Speculative {
                        drafter: DrafterChoice::Learned,
                        strategy: *strategy,
                    }
                } else {
                    SdDecision::Vanilla
                }
            }
            Policy::Adaptive(manager) => manager.decide(load, &mut self.rng),
        };
        let SdDecision::Speculative { drafter, strategy } = decision else {
            let cost = match &mut self.vanilla {
                Some(cost) if cost.batch == batch => cost,
                stale => stale.insert(model.cost.decode_batch(batch)),
            };
            return SdStep {
                time_s: cost.time(avg_context) * time_scale,
                tokens_per_seq: 1.0,
                speculative: false,
            };
        };
        let (accept, time_s) = self.speculative(model, drafter, &strategy, batch, avg_context);
        let time_s = time_s * time_scale;
        if let Policy::Adaptive(manager) = &mut self.policy {
            manager.record(
                &strategy,
                StepObservation {
                    elapsed_s: time_s,
                    accepted_tokens: (accept - 1.0) * batch as f64,
                    batch_size: batch,
                },
            );
        }
        SdStep {
            time_s,
            tokens_per_seq: accept,
            speculative: true,
        }
    }

    /// Expected accept length and unscaled time of one speculative step.
    fn speculative(
        &mut self,
        model: &SdStepModel<'_>,
        drafter: DrafterChoice,
        strategy: &SdStrategy,
        batch: usize,
        avg_context: usize,
    ) -> (f64, f64) {
        let cost_at = |batch| {
            model.cost.speculative_batch(
                model.drafter,
                batch,
                strategy.draft_depth,
                strategy.tokens_to_verify,
            )
        };
        if let Some((_, _, accept, cost)) = self
            .accept_memo
            .iter_mut()
            .find(|(d, s, ..)| *d == drafter && s == strategy)
        {
            if cost.batch != batch {
                *cost = cost_at(batch);
            }
            return (*accept, cost.time(avg_context));
        }
        let profile = match drafter {
            DrafterChoice::Learned => model.acceptance,
            DrafterChoice::ModelFree => model.model_free_acceptance,
        };
        let accept = expected_accept_len(profile, strategy);
        let cost = cost_at(batch);
        // The table is bounded: a custom strategy set with more pairs than slots
        // has the surplus recomputed on every step.
        if self.accept_memo.len() < ACCEPT_MEMO_SLOTS {
            self.accept_memo.push((drafter, *strategy, accept, cost));
        }
        (accept, cost.time(avg_context))
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
                tokens_per_seq: 1.0,
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
        assert_eq!(
            step.tokens_per_seq.to_bits(),
            expected_accept_len(&fx.acceptance, &strategy).to_bits()
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
                    .any(|bits| bits == step.tokens_per_seq.to_bits());
                assert!(direct, "batch {batch}: accept {}", step.tokens_per_seq);
            }
            assert_eq!(eval.accept_memo.len(), SdStrategy::default_set().len());
        }
    }

    #[test]
    fn pairs_beyond_the_memo_table_are_still_evaluated() {
        let fx = fixture();
        let mut eval = SdStepEvaluator::new(&SdMode::Disabled, 0);
        for depth in 1..=2 * ACCEPT_MEMO_SLOTS {
            let strategy = SdStrategy {
                draft_depth: depth,
                ..SdStrategy::default()
            };
            for _ in 0..2 {
                let (got, _) =
                    eval.speculative(&fx.step_model(), DrafterChoice::Learned, &strategy, 4, 1024);
                assert_eq!(
                    got.to_bits(),
                    expected_accept_len(&fx.acceptance, &strategy).to_bits()
                );
            }
        }
        assert_eq!(eval.accept_memo.len(), ACCEPT_MEMO_SLOTS);
    }
}

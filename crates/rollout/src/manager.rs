//! Adaptive SD Manager (§5.1).
//!
//! Per decode iteration the manager decides (a) whether speculative decoding is
//! active at all — SD only pays off once the number of running requests drops below
//! an elastic threshold (default 32), (b) which drafter to use — the learned adaptive
//! drafter when one is available and warm, otherwise the model-free n-gram fallback,
//! and (c) which SD strategy to run — delegated to the BEG-MAB tuner.
//! The model-free drafter (TLT-Base) is timing-level only; [`crate::spec`] says why.

use crate::mab::{BegMabConfig, BegMabSelector, StepObservation};
use crate::spec::SdStrategy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which drafter backs speculative decoding for a given step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DrafterChoice {
    /// The learned adaptive (EAGLE-style) drafter.
    Learned,
    /// The model-free n-gram drafter (fallback / TLT-Base); timing level only.
    ModelFree,
}

/// The manager's decision for one generation step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SdDecision {
    /// Run vanilla decoding (SD disabled for this step).
    Vanilla,
    /// Run speculative decoding with the given drafter and strategy.
    Speculative {
        /// Which drafter proposes tokens.
        drafter: DrafterChoice,
        /// Which strategy (depth / top-K / verify budget) to use.
        strategy: SdStrategy,
    },
}

/// Configuration of the adaptive SD manager.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdManagerConfig {
    /// SD activates only when running requests drop below this threshold
    /// (the paper's elastic mechanism, default 32).
    pub elastic_threshold: usize,
    /// Whether a learned drafter is available (false during the first RL steps and
    /// for the TLT-Base baseline).
    pub learned_drafter_available: bool,
    /// Whether the model-free drafter may serve as a fallback.
    pub model_free_fallback: bool,
    /// BEG-MAB tuner configuration.
    pub mab: BegMabConfig,
}

impl Default for SdManagerConfig {
    fn default() -> Self {
        SdManagerConfig {
            elastic_threshold: 32,
            learned_drafter_available: true,
            model_free_fallback: true,
            mab: BegMabConfig::default(),
        }
    }
}

/// The adaptive SD manager.
#[derive(Debug, Clone)]
pub struct AdaptiveSdManager {
    config: SdManagerConfig,
    pub(crate) selector: BegMabSelector,
}

impl AdaptiveSdManager {
    /// Creates a manager with the default strategy set.
    pub fn new(config: SdManagerConfig) -> Self {
        Self::with_selector(config, BegMabSelector::with_default_strategies(config.mab))
    }

    /// Creates a manager whose tuner is `selector` (a caller's strategy set;
    /// `config.mab` is then unused).
    pub fn with_selector(config: SdManagerConfig, selector: BegMabSelector) -> Self {
        AdaptiveSdManager { config, selector }
    }

    /// Current configuration.
    pub fn config(&self) -> SdManagerConfig {
        self.config
    }

    /// Marks the learned drafter as (un)available (e.g. after its first warm-up
    /// training session completes, or while its weights are being updated).
    pub fn set_learned_drafter_available(&mut self, available: bool) {
        self.config.learned_drafter_available = available;
    }

    /// Decides how to run the next generation step for `running_requests` sequences.
    pub fn decide<R: Rng>(&mut self, running_requests: usize, rng: &mut R) -> SdDecision {
        match self.decide_arm(running_requests, rng) {
            Some((drafter, arm, _)) => SdDecision::Speculative {
                drafter,
                strategy: self.selector.arms[arm],
            },
            None => SdDecision::Vanilla,
        }
    }

    /// [`decide`](Self::decide) by the tuner's arm index, with whether the tuner
    /// learns from the step's outcome; `None` is vanilla.
    #[inline]
    pub(crate) fn decide_arm<R: Rng>(
        &mut self,
        running_requests: usize,
        rng: &mut R,
    ) -> Option<(DrafterChoice, usize, bool)> {
        if running_requests == 0 || running_requests > self.config.elastic_threshold {
            return None;
        }
        let drafter = if self.config.learned_drafter_available {
            DrafterChoice::Learned
        } else if self.config.model_free_fallback {
            DrafterChoice::ModelFree
        } else {
            return None;
        };
        let (arm, learns) = self.selector.select_arm(running_requests, rng);
        Some((drafter, arm, learns))
    }

    /// Counts `times` more speculative decisions like the last one, which did
    /// not learn: what as many [`decide_arm`](Self::decide_arm) calls at the
    /// same load would count.
    pub(crate) fn repeat_decision(&mut self, times: u64) {
        self.selector.repeat_lone_selection(times);
    }

    /// Feeds back the outcome of a speculative step so the tuner can adapt.
    pub fn record(&mut self, strategy: &SdStrategy, obs: StepObservation) {
        self.selector.record(strategy, obs);
    }

    /// Access to the underlying tuner (for inspection in experiments).
    pub fn selector(&self) -> &BegMabSelector {
        &self.selector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sd_only_activates_below_elastic_threshold() {
        let mut manager = AdaptiveSdManager::new(SdManagerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(manager.decide(128, &mut rng), SdDecision::Vanilla);
        assert_eq!(manager.decide(33, &mut rng), SdDecision::Vanilla);
        assert!(matches!(
            manager.decide(32, &mut rng),
            SdDecision::Speculative { .. }
        ));
        assert!(matches!(
            manager.decide(1, &mut rng),
            SdDecision::Speculative { .. }
        ));
    }

    #[test]
    fn model_free_fallback_used_before_drafter_is_ready() {
        let mut manager = AdaptiveSdManager::new(SdManagerConfig {
            learned_drafter_available: false,
            ..SdManagerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        match manager.decide(8, &mut rng) {
            SdDecision::Speculative { drafter, .. } => {
                assert_eq!(drafter, DrafterChoice::ModelFree)
            }
            other => panic!("expected speculative decision, got {other:?}"),
        }
        manager.set_learned_drafter_available(true);
        match manager.decide(8, &mut rng) {
            SdDecision::Speculative { drafter, .. } => assert_eq!(drafter, DrafterChoice::Learned),
            other => panic!("expected speculative decision, got {other:?}"),
        }
    }

    #[test]
    fn no_drafter_at_all_falls_back_to_vanilla() {
        let mut manager = AdaptiveSdManager::new(SdManagerConfig {
            learned_drafter_available: false,
            model_free_fallback: false,
            ..SdManagerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(manager.decide(4, &mut rng), SdDecision::Vanilla);
    }

    #[test]
    fn strategy_depends_on_batch_size() {
        let mut manager = AdaptiveSdManager::new(SdManagerConfig {
            mab: BegMabConfig {
                epsilon: 0.0,
                window: 4,
            },
            ..SdManagerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let small = match manager.decide(1, &mut rng) {
            SdDecision::Speculative { strategy, .. } => strategy,
            _ => panic!("expected SD"),
        };
        let large = match manager.decide(30, &mut rng) {
            SdDecision::Speculative { strategy, .. } => strategy,
            _ => panic!("expected SD"),
        };
        assert!(small.tokens_to_verify > large.tokens_to_verify);
    }

    #[test]
    fn empty_batch_is_vanilla() {
        let mut manager = AdaptiveSdManager::new(SdManagerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(manager.decide(0, &mut rng), SdDecision::Vanilla);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Elastic activation is monotone in the running-request count: for a fixed
        /// config, once SD is disabled at some `n >= 1` running requests it stays
        /// disabled at every `m > n` (speculation never *re-activates* as load
        /// grows). `n = 0` is excluded: an empty batch is trivially vanilla yet SD
        /// may activate as soon as one request runs.
        #[test]
        fn sd_disablement_is_monotone_in_load(
            threshold in 0usize..96,
            learned in 0u8..2,
            fallback in 0u8..2,
            seed in 0u64..1_000,
        ) {
            let mut manager = AdaptiveSdManager::new(SdManagerConfig {
                elastic_threshold: threshold,
                learned_drafter_available: learned == 1,
                model_free_fallback: fallback == 1,
                ..SdManagerConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let mut disabled_seen = false;
            for n in 1usize..=192 {
                let disabled = matches!(manager.decide(n, &mut rng), SdDecision::Vanilla);
                if disabled_seen {
                    prop_assert!(
                        disabled,
                        "SD re-activated at n={n} (threshold {threshold}, learned {learned}, fallback {fallback})"
                    );
                }
                disabled_seen = disabled_seen || disabled;
            }
        }

        /// The learned drafter is never chosen while it is unavailable, whatever the
        /// load or the fallback setting.
        #[test]
        fn learned_drafter_never_chosen_when_unavailable(
            threshold in 1usize..96,
            fallback in 0u8..2,
            loads in proptest::collection::vec(0usize..192, 1..32),
            seed in 0u64..1_000,
        ) {
            let mut manager = AdaptiveSdManager::new(SdManagerConfig {
                elastic_threshold: threshold,
                learned_drafter_available: false,
                model_free_fallback: fallback == 1,
                ..SdManagerConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(seed);
            for n in loads {
                match manager.decide(n, &mut rng) {
                    SdDecision::Speculative { drafter, .. } => {
                        prop_assert_ne!(drafter, DrafterChoice::Learned);
                        prop_assert!(fallback == 1, "speculated without any drafter");
                    }
                    SdDecision::Vanilla => {}
                }
            }
        }
    }
}

//! Draft-model training strategies.
//!
//! The paper's training framework is drafter-agnostic (§4.1, Figure 7): EAGLE, HASS,
//! EAGLE-3 and OSD-style distillation differ only in which hidden states they consume,
//! which losses they combine, and how many forward passes one training step costs
//! ("training-time test"). This module encodes those differences so the spot trainer
//! and the Table 7/8 experiments can swap strategies without touching the trainer.

use crate::model::FeatureSource;
use serde::{Deserialize, Serialize};

/// A draft-model training strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum TrainingStrategy {
    /// EAGLE: last-layer features, L1 + CE loss, single forward per step.
    /// The paper's default for its cost/quality balance (§6.5).
    #[default]
    Eagle,
    /// HASS: EAGLE plus training-time-test — the drafter's own output feature is fed
    /// back as input for `ttt_steps` extra passes, mitigating train/infer mismatch.
    Hass {
        /// Number of training-time-test steps (the paper uses 3).
        ttt_steps: usize,
    },
    /// EAGLE-3: multi-layer feature fusion, CE loss only, longer training-time test.
    Eagle3 {
        /// Number of training-time-test steps (the paper uses 7).
        ttt_steps: usize,
    },
    /// OSD-style online knowledge distillation (reverse KL on the sampled rollout
    /// distribution) layered on top of the base EAGLE losses.
    Osd,
    /// Plain supervised fine-tuning of an independent small LM drafter (the vanilla
    /// baseline of Table 8); uses CE only and last-layer features.
    Sft,
}

impl TrainingStrategy {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            TrainingStrategy::Eagle => "Eagle",
            TrainingStrategy::Hass { .. } => "HASS",
            TrainingStrategy::Eagle3 { .. } => "Eagle-3",
            TrainingStrategy::Osd => "OSD",
            TrainingStrategy::Sft => "SFT",
        }
    }

    /// Which target hidden states the drafter consumes.
    pub fn feature_source(&self) -> FeatureSource {
        match self {
            TrainingStrategy::Eagle3 { .. } => FeatureSource::MultiLayer,
            _ => FeatureSource::LastLayer,
        }
    }

    /// Weight of the feature-alignment (smooth-L1) loss.
    pub fn l1_weight(&self) -> f32 {
        match self {
            TrainingStrategy::Eagle | TrainingStrategy::Hass { .. } | TrainingStrategy::Osd => 0.2,
            TrainingStrategy::Eagle3 { .. } | TrainingStrategy::Sft => 0.0,
        }
    }

    /// Weight of the token cross-entropy loss.
    pub fn ce_weight(&self) -> f32 {
        1.0
    }

    /// Weight of the reverse-KL distillation loss toward the target's sampled
    /// distribution (only OSD uses it).
    pub fn reverse_kl_weight(&self) -> f32 {
        match self {
            TrainingStrategy::Osd => 0.5,
            _ => 0.0,
        }
    }

    /// Number of training-time-test feedback passes.
    pub fn ttt_steps(&self) -> usize {
        match self {
            TrainingStrategy::Hass { ttt_steps } | TrainingStrategy::Eagle3 { ttt_steps } => {
                *ttt_steps
            }
            _ => 0,
        }
    }

    /// Relative per-step training cost, normalised to EAGLE = 1 (paper Table 7's
    /// "Training Cost" column). One extra forward/backward per training-time-test
    /// step plus the multi-layer fusion overhead for EAGLE-3.
    pub fn relative_training_cost(&self) -> f64 {
        match self {
            TrainingStrategy::Eagle | TrainingStrategy::Sft => 1.0,
            TrainingStrategy::Osd => 1.5,
            TrainingStrategy::Hass { ttt_steps } => *ttt_steps as f64,
            TrainingStrategy::Eagle3 { ttt_steps } => *ttt_steps as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_eagle() {
        assert_eq!(TrainingStrategy::default(), TrainingStrategy::Eagle);
    }

    #[test]
    fn table7_costs_match_paper_ordering() {
        // Paper Table 7: HASS = 3x, Eagle-3 = 7x, Eagle = 1x.
        let hass = TrainingStrategy::Hass { ttt_steps: 3 };
        assert_eq!(hass.relative_training_cost(), 3.0);
        let eagle3 = TrainingStrategy::Eagle3 { ttt_steps: 7 };
        assert_eq!(eagle3.relative_training_cost(), 7.0);
        assert_eq!(TrainingStrategy::Eagle.relative_training_cost(), 1.0);
    }

    #[test]
    fn eagle3_uses_multilayer_features_and_no_l1() {
        let s = TrainingStrategy::Eagle3 { ttt_steps: 7 };
        assert_eq!(s.feature_source(), FeatureSource::MultiLayer);
        assert_eq!(s.l1_weight(), 0.0);
        assert_eq!(s.ttt_steps(), 7);
    }

    #[test]
    fn eagle_uses_last_layer_with_l1() {
        assert_eq!(
            TrainingStrategy::Eagle.feature_source(),
            FeatureSource::LastLayer
        );
        assert!(TrainingStrategy::Eagle.l1_weight() > 0.0);
        assert_eq!(TrainingStrategy::Eagle.ttt_steps(), 0);
    }

    #[test]
    fn only_osd_uses_reverse_kl() {
        assert!(TrainingStrategy::Osd.reverse_kl_weight() > 0.0);
        assert_eq!(TrainingStrategy::Eagle.reverse_kl_weight(), 0.0);
        assert_eq!(TrainingStrategy::Sft.reverse_kl_weight(), 0.0);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(TrainingStrategy::Hass { ttt_steps: 3 }.name(), "HASS");
        assert_eq!(TrainingStrategy::Eagle3 { ttt_steps: 7 }.name(), "Eagle-3");
    }
}

//! Drafter training loop shared by the spot trainer and the offline experiments.
//!
//! Implements the unified training workflow of Figure 7: fusion inputs are built from
//! cached target hidden states + token embeddings, the drafter's single decoder layer
//! is trained with a weighted combination of token cross-entropy, feature-alignment
//! smooth-L1, and (for OSD) reverse-KL distillation, with optional training-time-test
//! feedback passes (HASS / EAGLE-3). Only drafter parameters are updated; the target
//! stays frozen.

use crate::data_buffer::TrainingSample;
use crate::model::{DraftGrads, DraftModel};
use crate::strategy::TrainingStrategy;
use serde::{Deserialize, Serialize};
use tlt_model::ops::{cross_entropy, smooth_l1, top_k_accuracy_multi};
use tlt_model::{Adam, AdamConfig, Mat, TinyLm};

/// Global-norm threshold the batch gradient is clipped to before the update.
const GRAD_CLIP: f32 = 1.0;

/// Maximum training positions consumed from one sample per iteration (long
/// sequences are truncated to bound iteration latency).
const MAX_POSITIONS_PER_SAMPLE: usize = 256;

/// Configuration of the drafter trainer. The optimizer is Adam with
/// [`AdamConfig::drafter`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Training strategy (EAGLE by default).
    pub strategy: TrainingStrategy,
}

/// Metrics of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainMetrics {
    /// Trainer iteration index.
    pub iteration: u64,
    /// Total weighted loss.
    pub loss: f32,
    /// Cross-entropy component.
    pub ce_loss: f32,
    /// Feature-alignment component.
    pub l1_loss: f32,
    /// Top-1 next-token accuracy against the target's sampled tokens.
    pub top1_accuracy: f64,
    /// Top-3 next-token accuracy (the quantity plotted in Figure 15).
    pub top3_accuracy: f64,
    /// Number of supervised token positions in the iteration.
    pub positions: usize,
}

/// Drafter trainer: owns the draft model, its optimizer, and the metric history.
#[derive(Debug)]
pub struct DrafterTrainer {
    /// The draft model being trained.
    pub drafter: DraftModel,
    config: TrainerConfig,
    adam: Adam,
    iteration: u64,
    history: Vec<TrainMetrics>,
}

impl DrafterTrainer {
    /// Creates a trainer with a freshly initialised drafter for `target`.
    pub fn new(target: &TinyLm, config: TrainerConfig, seed: u64) -> Self {
        let drafter = DraftModel::new(target, config.strategy.feature_source(), seed);
        DrafterTrainer {
            drafter,
            config,
            adam: Adam::new(AdamConfig::drafter()),
            iteration: 0,
            history: Vec::new(),
        }
    }

    /// Wraps an existing drafter (e.g. restored from a checkpoint).
    pub fn with_drafter(drafter: DraftModel, config: TrainerConfig) -> Self {
        DrafterTrainer {
            drafter,
            config,
            adam: Adam::new(AdamConfig::drafter()),
            iteration: 0,
            history: Vec::new(),
        }
    }

    /// Trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Number of optimisation iterations performed.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Metric history, one entry per iteration.
    pub fn history(&self) -> &[TrainMetrics] {
        &self.history
    }

    fn sample_positions(&self, sample: &TrainingSample) -> usize {
        sample
            .num_training_positions()
            .min(MAX_POSITIONS_PER_SAMPLE)
    }

    /// Builds `(fusion_input, target_tokens, next_features)` for one sample: position
    /// `t` consumes `(feature[t], embed(token[t+1]))` and predicts `token[t+2]`,
    /// aligning its output feature with `feature[t+1]`.
    fn build_training_tensors(
        &self,
        target: &TinyLm,
        sample: &TrainingSample,
    ) -> (Mat, Vec<usize>, Mat) {
        let positions = self.sample_positions(sample);
        let usable = sample.features.slice_rows(0, positions);
        let fusion_input = self
            .drafter
            .build_fusion_input(target, &usable, &sample.tokens);
        let targets: Vec<usize> = sample.tokens[2..2 + positions]
            .iter()
            .map(|&t| t as usize)
            .collect();
        let next_features = sample.features.slice_rows(1, positions + 1);
        (fusion_input, targets, next_features)
    }

    /// Runs one forward/backward pass over a single sample and returns the gradients
    /// plus the metric contributions.
    fn grads_for_sample(
        &self,
        target: &TinyLm,
        sample: &TrainingSample,
    ) -> Option<(DraftGrads, f32, f32, f64, f64, usize)> {
        let positions = self.sample_positions(sample);
        if positions == 0 {
            return None;
        }
        let strategy = self.config.strategy;
        let (fusion_input, targets, next_features) = self.build_training_tensors(target, sample);
        let cache = self.drafter.forward_train(target, &fusion_input);

        // Token cross-entropy through the frozen head (scaling by a weight of
        // exactly 1.0 is skipped — x * 1.0 is bitwise x).
        let (ce, d_logits_ce) = cross_entropy(&cache.logits, &targets);
        let mut d_logits = if strategy.ce_weight() == 1.0 {
            d_logits_ce
        } else {
            d_logits_ce.scale(strategy.ce_weight())
        };

        // OSD reverse-KL distillation toward the target's own next-token
        // distribution at the same positions.
        if strategy.reverse_kl_weight() > 0.0 {
            let feature_width = target.config.hidden;
            let last_layer_next = if next_features.cols() == feature_width {
                next_features.clone()
            } else {
                // Multi-layer source: the top-layer block is the last `hidden` columns.
                let mut top = Mat::zeros(next_features.rows(), feature_width);
                for r in 0..next_features.rows() {
                    let row = next_features.row(r);
                    top.set_row(r, &row[row.len() - feature_width..]);
                }
                top
            };
            let target_logits = target.project_hidden(&last_layer_next);
            let mut d_kl = Mat::zeros(cache.logits.rows(), cache.logits.cols());
            for r in 0..cache.logits.rows() {
                let draft_probs = tlt_model::probs_from_logits(
                    cache.logits.row(r),
                    tlt_model::SamplingParams {
                        temperature: 1.0,
                        top_k: None,
                    },
                );
                let target_probs = tlt_model::probs_from_logits(
                    target_logits.row(r),
                    tlt_model::SamplingParams {
                        temperature: 1.0,
                        top_k: None,
                    },
                );
                let grad = tlt_model::kl::kl_grad_wrt_logits(&draft_probs, &target_probs);
                d_kl.set_row(r, &grad);
            }
            d_logits.add_assign(&d_kl.scale(strategy.reverse_kl_weight() / positions as f32));
        }

        let mut d_features = self
            .drafter
            .logits_grad_to_features(target, &cache, &d_logits);

        // Feature-alignment loss (only meaningful for last-layer features).
        let mut l1 = 0.0;
        if strategy.l1_weight() > 0.0 && cache.features.shape() == next_features.shape() {
            let (l1_loss, d_l1) = smooth_l1(&cache.features, &next_features);
            l1 = l1_loss;
            d_features.add_assign(&d_l1.scale(strategy.l1_weight()));
        }

        let mut grads = self.drafter.backward(&cache, &d_features);

        // Training-time test (HASS / EAGLE-3): feed the drafter's own output features
        // back as the context features for additional passes so it learns to correct
        // its own drift. Each extra pass contributes scaled-down gradients.
        let ttt_steps = strategy.ttt_steps();
        if ttt_steps > 0 {
            let mut synth_features = cache.features.clone();
            for step in 0..ttt_steps.min(3) {
                let synth_source = if sample.features.cols() == synth_features.cols() {
                    synth_features.clone()
                } else {
                    // Multi-layer drafter: replicate its feature into all slots.
                    Mat::hconcat(&[&synth_features, &synth_features, &synth_features])
                };
                let synth_input =
                    self.drafter
                        .build_fusion_input(target, &synth_source, &sample.tokens);
                let synth_cache = self.drafter.forward_train(target, &synth_input);
                let (_, d_logits_ttt) = cross_entropy(&synth_cache.logits, &targets);
                let d_feat_ttt =
                    self.drafter
                        .logits_grad_to_features(target, &synth_cache, &d_logits_ttt);
                let scale = 0.5f32.powi(step as i32 + 1);
                let extra = self
                    .drafter
                    .backward(&synth_cache, &d_feat_ttt.scale(scale));
                grads.fusion.add_assign(&extra.fusion);
                grads.layer.accumulate(&extra.layer);
                synth_features = synth_cache.features;
            }
        }

        let topk = top_k_accuracy_multi(&cache.logits, &targets, &[1, 3]);
        Some((grads, ce, l1, topk[0], topk[1], positions))
    }

    /// Evaluates drafter next-token accuracy on `samples` without updating weights.
    pub fn evaluate(&self, target: &TinyLm, samples: &[&TrainingSample]) -> (f64, f64) {
        let mut top1_sum = 0.0;
        let mut top3_sum = 0.0;
        let mut total = 0usize;
        for sample in samples {
            let positions = self.sample_positions(sample);
            if positions == 0 {
                continue;
            }
            let (fusion_input, targets, _) = self.build_training_tensors(target, sample);
            let cache = self.drafter.forward_train(target, &fusion_input);
            let topk = top_k_accuracy_multi(&cache.logits, &targets, &[1, 3]);
            top1_sum += topk[0] * positions as f64;
            top3_sum += topk[1] * positions as f64;
            total += positions;
        }
        if total == 0 {
            (0.0, 0.0)
        } else {
            (top1_sum / total as f64, top3_sum / total as f64)
        }
    }

    /// Performs one optimisation iteration over a batch of samples.
    ///
    /// Per-sample forward/backward passes (the microbatches) are fanned out over
    /// the shared worker pool ([`tlt_model::parallel_map`]) and their gradients
    /// merged back in sample order, so the update is bit-identical to a sequential
    /// pass regardless of worker count.
    ///
    /// Returns `None` when the batch contributes no usable positions.
    pub fn train_iteration(
        &mut self,
        target: &TinyLm,
        samples: &[&TrainingSample],
    ) -> Option<TrainMetrics> {
        let mut accumulated: Option<DraftGrads> = None;
        let mut ce_sum = 0.0f32;
        let mut l1_sum = 0.0f32;
        let mut top1_sum = 0.0f64;
        let mut top3_sum = 0.0f64;
        let mut total_positions = 0usize;
        let mut used_samples = 0usize;

        let per_sample = tlt_model::parallel_map(samples.to_vec(), |_, sample| {
            self.grads_for_sample(target, sample)
        });
        for result in per_sample {
            let Some((grads, ce, l1, top1, top3, positions)) = result else {
                continue;
            };
            ce_sum += ce;
            l1_sum += l1;
            top1_sum += top1 * positions as f64;
            top3_sum += top3 * positions as f64;
            total_positions += positions;
            used_samples += 1;
            match accumulated.as_mut() {
                Some(acc) => {
                    acc.fusion.add_assign(&grads.fusion);
                    acc.layer.accumulate(&grads.layer);
                }
                None => accumulated = Some(grads),
            }
        }

        let mut grads = accumulated?;
        if used_samples > 1 {
            let scale = 1.0 / used_samples as f32;
            grads.fusion.scale_assign(scale);
            grads.layer.scale(scale);
        }
        clip_global_norm(&mut grads);

        self.adam.begin_step();
        self.adam.update_mat(
            "drafter.fusion",
            &mut self.drafter.fusion.weight,
            &grads.fusion,
        );
        self.adam
            .update_decoder_layer("drafter.layer", &mut self.drafter.layer, &grads.layer);
        self.drafter.bump_version();
        self.iteration += 1;

        let metrics = TrainMetrics {
            iteration: self.iteration,
            loss: ce_sum / used_samples as f32
                + self.config.strategy.l1_weight() * l1_sum / used_samples as f32,
            ce_loss: ce_sum / used_samples as f32,
            l1_loss: l1_sum / used_samples as f32,
            top1_accuracy: top1_sum / total_positions.max(1) as f64,
            top3_accuracy: top3_sum / total_positions.max(1) as f64,
            positions: total_positions,
        };
        self.history.push(metrics);
        Some(metrics)
    }
}

/// Scales `grads` down to global norm [`GRAD_CLIP`] when it is above it.
fn clip_global_norm(grads: &mut DraftGrads) {
    let norm = grads.global_norm();
    if norm > GRAD_CLIP {
        let scale = GRAD_CLIP / norm;
        grads.fusion.scale_assign(scale);
        grads.layer.scale(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_buffer::TrainingSample;
    use crate::model::FeatureSource;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlt_model::{ModelConfig, TokenId};

    fn make_samples(target: &TinyLm, strategy: TrainingStrategy, n: usize) -> Vec<TrainingSample> {
        let mut rng = StdRng::seed_from_u64(5);
        (0..n)
            .map(|i| {
                let len = 12 + (i % 5) * 3;
                let tokens: Vec<TokenId> = (0..len)
                    .map(|_| rng.gen_range(0..target.config.vocab_size as u32))
                    .collect();
                TrainingSample::from_rollout(
                    target,
                    strategy.feature_source(),
                    &tokens,
                    len - 4,
                    0,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn eagle_training_improves_top3_accuracy() {
        let target = TinyLm::new(ModelConfig::micro(), 21);
        let config = TrainerConfig::default();
        let mut trainer = DrafterTrainer::new(&target, config, 3);
        let samples = make_samples(&target, config.strategy, 6);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        let (_, before) = trainer.evaluate(&target, &refs);
        for _ in 0..25 {
            trainer.train_iteration(&target, &refs).expect("metrics");
        }
        let (_, after) = trainer.evaluate(&target, &refs);
        assert!(
            after > before,
            "top-3 accuracy did not improve: {before:.3} -> {after:.3}"
        );
        assert_eq!(trainer.iterations(), 25);
        assert_eq!(trainer.history().len(), 25);
    }

    #[test]
    fn loss_decreases_over_training() {
        let target = TinyLm::new(ModelConfig::micro(), 22);
        let config = TrainerConfig::default();
        let mut trainer = DrafterTrainer::new(&target, config, 4);
        let samples = make_samples(&target, config.strategy, 4);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        let mut losses = Vec::new();
        for _ in 0..30 {
            losses.push(trainer.train_iteration(&target, &refs).unwrap().ce_loss);
        }
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[25..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "CE loss did not decrease: {early} -> {late}");
    }

    #[test]
    fn hass_strategy_trains_with_ttt_passes() {
        let target = TinyLm::new(ModelConfig::micro(), 23);
        let config = TrainerConfig {
            strategy: TrainingStrategy::Hass { ttt_steps: 3 },
        };
        let mut trainer = DrafterTrainer::new(&target, config, 5);
        let samples = make_samples(&target, config.strategy, 3);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        let metrics = trainer.train_iteration(&target, &refs).expect("metrics");
        assert!(metrics.positions > 0);
        assert!(metrics.loss.is_finite());
    }

    #[test]
    fn eagle3_strategy_uses_multilayer_features() {
        let target = TinyLm::new(ModelConfig::micro(), 24);
        let config = TrainerConfig {
            strategy: TrainingStrategy::Eagle3 { ttt_steps: 2 },
        };
        let mut trainer = DrafterTrainer::new(&target, config, 6);
        let samples = make_samples(&target, config.strategy, 3);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        let metrics = trainer.train_iteration(&target, &refs).expect("metrics");
        assert!(metrics.l1_loss == 0.0, "EAGLE-3 uses CE only");
        assert!(metrics.top3_accuracy >= 0.0);
    }

    #[test]
    fn osd_strategy_trains_without_panicking() {
        let target = TinyLm::new(ModelConfig::micro(), 25);
        let config = TrainerConfig {
            strategy: TrainingStrategy::Osd,
        };
        let mut trainer = DrafterTrainer::new(&target, config, 7);
        let samples = make_samples(&target, config.strategy, 3);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        for _ in 0..3 {
            assert!(trainer.train_iteration(&target, &refs).is_some());
        }
    }

    #[test]
    fn empty_batch_returns_none() {
        let target = TinyLm::new(ModelConfig::micro(), 26);
        let mut trainer = DrafterTrainer::new(&target, TrainerConfig::default(), 8);
        assert!(trainer.train_iteration(&target, &[]).is_none());
        assert_eq!(trainer.iterations(), 0);
    }

    #[test]
    fn drafter_version_advances_with_training() {
        let target = TinyLm::new(ModelConfig::micro(), 27);
        let config = TrainerConfig::default();
        let mut trainer = DrafterTrainer::new(&target, config, 9);
        let samples = make_samples(&target, config.strategy, 2);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        let v0 = trainer.drafter.version;
        trainer.train_iteration(&target, &refs);
        assert!(trainer.drafter.version > v0);
    }

    #[test]
    fn a_gradient_above_norm_one_is_applied_at_norm_one() {
        let target = TinyLm::new(ModelConfig::tiny(), 27);
        let mut trainer = DrafterTrainer::new(&target, TrainerConfig::default(), 9);
        let samples = make_samples(&target, TrainingStrategy::Eagle, 1);
        let (mut grads, ..) = trainer.grads_for_sample(&target, &samples[0]).unwrap();
        let raw_norm = grads.global_norm();
        assert!(raw_norm > 5.0 * GRAD_CLIP, "raw norm {raw_norm}");
        clip_global_norm(&mut grads);
        assert!((grads.global_norm() - 1.0).abs() < 1e-5);

        // One iteration on that one-sample batch is one Adam step on the
        // clipped gradient, bit for bit.
        let mut expected = trainer.drafter.clone();
        let mut adam = Adam::new(AdamConfig::drafter());
        adam.begin_step();
        adam.update_mat("drafter.fusion", &mut expected.fusion.weight, &grads.fusion);
        adam.update_decoder_layer("drafter.layer", &mut expected.layer, &grads.layer);
        trainer.train_iteration(&target, &[&samples[0]]).unwrap();
        assert_eq!(trainer.drafter.fusion.weight, expected.fusion.weight);
        assert_eq!(trainer.drafter.layer, expected.layer);

        // A gradient far above the threshold keeps its direction.
        let mut big = grads.clone();
        big.fusion.scale_assign(1e3);
        big.layer.scale(1e3);
        clip_global_norm(&mut big);
        assert!((big.global_norm() - 1.0).abs() < 1e-5);
        for (b, g) in big.fusion.as_slice().iter().zip(grads.fusion.as_slice()) {
            assert!((b - g).abs() <= 1e-5 * g.abs().max(1e-3));
        }
    }

    #[test]
    fn a_sample_longer_than_256_positions_trains_256() {
        let target = TinyLm::new(ModelConfig::tiny(), 28);
        let mut trainer = DrafterTrainer::new(&target, TrainerConfig::default(), 10);
        let tokens: Vec<TokenId> = (0..300).map(|i| (i * 7 % 50) as TokenId).collect();
        let sample =
            TrainingSample::from_rollout(&target, FeatureSource::LastLayer, &tokens, 290, 0, 0);
        assert_eq!(sample.num_training_positions(), 298);
        let metrics = trainer.train_iteration(&target, &[&sample]).unwrap();
        assert_eq!(metrics.positions, MAX_POSITIONS_PER_SAMPLE);
        assert_eq!(metrics.positions, 256);
    }
}

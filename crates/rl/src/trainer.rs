//! Token-level policy optimisation (the "inference" and "training" stages of Figure 4).
//!
//! The trainer is rollout-engine agnostic: it consumes prompt groups with their
//! already-generated responses and rewards (produced by either vanilla or speculative
//! decoding — TLT's losslessness guarantee means the two are interchangeable), runs
//! the reference/policy log-probability computation, forms the GRPO loss with a KL
//! penalty toward the frozen reference model, and applies the policy-gradient update
//! to the target model's trainable tail.

use crate::advantage::{compute_advantages, RlAlgorithm};
use serde::{Deserialize, Serialize};
use tlt_model::kl::kl_grad_from_logits_into;
use tlt_model::{Adam, AdamConfig, Mat, PolicyGrads, TinyLm, TokenId};

/// RL training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlConfig {
    /// Advantage estimator.
    pub algorithm: RlAlgorithm,
    /// KL-penalty coefficient toward the reference model.
    pub kl_coef: f32,
    /// Adam learning rate for the policy update.
    pub lr: f32,
    /// Responses longer than this are truncated for the update (bounds step cost).
    pub max_update_tokens: usize,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            algorithm: RlAlgorithm::Grpo,
            kl_coef: 0.02,
            lr: 5e-3,
            max_update_tokens: 192,
        }
    }
}

/// One prompt group: the prompt, its sampled responses, and their rule-based rewards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RolloutGroup {
    /// Prompt tokens.
    pub prompt: Vec<TokenId>,
    /// Sampled responses (one per group member).
    pub responses: Vec<Vec<TokenId>>,
    /// Rule-based reward of each response.
    pub rewards: Vec<f32>,
}

impl RolloutGroup {
    /// Validates that responses and rewards line up.
    pub fn validate(&self) -> Result<(), String> {
        if self.prompt.is_empty() {
            return Err("empty prompt".to_string());
        }
        if self.responses.len() != self.rewards.len() {
            return Err("responses/rewards length mismatch".to_string());
        }
        if self.responses.is_empty() {
            return Err("group has no responses".to_string());
        }
        Ok(())
    }
}

/// Metrics of one RL training step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepMetrics {
    /// Mean rule-based reward across all responses.
    pub mean_reward: f64,
    /// Mean per-token KL divergence from the reference model. The tiny substrate
    /// materialises full next-token distributions during the update anyway, so this
    /// is the *exact* KL; production systems report a sampled estimate instead
    /// (see [`tlt_model::kl`] for the k1/k2/k3 estimators and their trade-offs).
    pub mean_kl: f64,
    /// Mean response length in tokens.
    pub mean_response_len: f64,
    /// Number of token positions that contributed gradients.
    pub update_tokens: usize,
    /// Gradient global norm before clipping.
    pub grad_norm: f64,
}

/// The policy trainer: owns the frozen reference model and the optimizer state.
///
/// Only the target's tail (last layer, final norm, LM head) is ever updated, so
/// the target and the reference keep the same frozen trunk (embedding and all
/// layers but the last) for the whole run. [`PolicyTrainer::train_step`] relies
/// on that: it runs the trunk once per response and feeds the result to both
/// tails. A target whose trunk differs from the reference's is rejected.
#[derive(Debug)]
pub struct PolicyTrainer {
    config: RlConfig,
    reference: TinyLm,
    adam: Adam,
    steps: u64,
}

impl PolicyTrainer {
    /// Creates a trainer with `reference` as the frozen KL anchor (typically a clone
    /// of the target at RL step 0).
    pub fn new(reference: TinyLm, config: RlConfig) -> Self {
        PolicyTrainer {
            config,
            reference,
            adam: Adam::new(AdamConfig {
                lr: config.lr,
                ..AdamConfig::default()
            }),
            steps: 0,
        }
    }

    /// Training configuration.
    pub fn config(&self) -> RlConfig {
        self.config
    }

    /// Number of RL steps applied.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The frozen reference model.
    pub fn reference(&self) -> &TinyLm {
        &self.reference
    }

    /// Runs one RL training step over the rollout groups, updating `target` in place.
    ///
    /// # Panics
    ///
    /// Panics if any group fails validation, or if `target`'s frozen trunk is not
    /// the reference's (see [`PolicyTrainer`]).
    pub fn train_step(&mut self, target: &mut TinyLm, groups: &[RolloutGroup]) -> StepMetrics {
        for g in groups {
            g.validate().expect("invalid rollout group");
        }
        assert!(
            target.shares_trunk_with(&self.reference),
            "target and reference trunks differ: the policy trainer updates only the \
             target's last layer, final norm and LM head, and needs every other weight \
             equal to the reference's"
        );
        let rewards: Vec<&[f32]> = groups.iter().map(|g| g.rewards.as_slice()).collect();
        let advantages = compute_advantages(self.config.algorithm, &rewards);

        let mut total_reward = 0.0f64;
        let mut total_kl = 0.0f64;
        let mut total_len = 0.0f64;
        let mut num_responses = 0usize;
        let mut update_tokens = 0usize;

        let mut accumulated: Option<PolicyGrads> = None;
        // Reused across every response and position of the step.
        let mut tokens: Vec<TokenId> = Vec::new();
        let mut d_logits = Mat::zeros(0, target.config.vocab_size);
        let mut probs = Vec::with_capacity(target.config.vocab_size);
        let mut kl_grad = Vec::with_capacity(target.config.vocab_size);

        for (group, advs) in groups.iter().zip(advantages.iter()) {
            for ((response, &reward), &advantage) in group
                .responses
                .iter()
                .zip(group.rewards.iter())
                .zip(advs.iter())
            {
                total_reward += reward as f64;
                total_len += response.len() as f64;
                num_responses += 1;

                // Full sequence (prompt + response), truncated for update cost.
                let prompt_len = group.prompt.len();
                let len = (prompt_len + response.len().min(self.config.max_update_tokens))
                    .min(target.config.max_seq_len);
                if len <= prompt_len {
                    continue;
                }
                tokens.clear();
                tokens.extend_from_slice(&group.prompt);
                tokens.extend_from_slice(&response[..len - prompt_len]);
                let response_positions = len - prompt_len;

                // Inference stage: one pass through the shared frozen trunk, then the
                // policy tail (recorded for the update) and the reference tail.
                let trunk = target.trunk_forward(&tokens[..len - 1]);
                let fwd = target.forward_tail_for_update(&trunk);
                let ref_logits = self.reference.tail_logits(&trunk);

                // Training stage: policy-gradient + KL-penalty gradient on logits,
                // applied only at response positions. The full policy distribution
                // and the log-ratio needed for the KL gradient double as the source
                // of the exact per-token KL reported in the metrics.
                d_logits.set_rows(len - 1, target.config.vocab_size);
                d_logits.fill_zero();
                let norm = response_positions as f32;
                let mut response_kl = 0.0f64;
                for pos in prompt_len - 1..len - 1 {
                    let next = tokens[pos + 1] as usize;
                    response_kl += kl_grad_from_logits_into(
                        fwd.logits.row(pos),
                        ref_logits.row(pos),
                        &mut probs,
                        &mut kl_grad,
                    );
                    let row = d_logits.row_mut(pos);
                    for v in 0..row.len() {
                        let indicator = if v == next { 1.0 } else { 0.0 };
                        // d/dz of [-A * log pi(next)] is A * (p - onehot).
                        row[v] = (advantage * (probs[v] - indicator)
                            + self.config.kl_coef * kl_grad[v])
                            / norm;
                    }
                    update_tokens += 1;
                }
                total_kl += response_kl / response_positions as f64;

                let grads = target.backward_for_update(&fwd, &d_logits);
                match accumulated.as_mut() {
                    Some(acc) => acc.accumulate(&grads),
                    None => accumulated = Some(grads),
                }
            }
        }

        let mut grad_norm = 0.0;
        if let Some(mut grads) = accumulated {
            if num_responses > 1 {
                grads.scale(1.0 / num_responses as f32);
            }
            grad_norm = grads.global_norm() as f64;
            // Global-norm clipping at 1.0 for stability.
            if grad_norm > 1.0 {
                grads.scale(1.0 / grad_norm as f32);
            }
            self.adam.begin_step();
            self.adam
                .update_mat("policy.lm_head", &mut target.lm_head, &grads.lm_head);
            self.adam.update_slice(
                "policy.final_norm",
                &mut target.final_norm,
                &grads.final_norm,
            );
            let last = target.layers.last_mut().expect("at least one layer");
            self.adam
                .update_decoder_layer("policy.last_layer", last, &grads.last_layer);
        }
        self.steps += 1;

        StepMetrics {
            mean_reward: total_reward / num_responses.max(1) as f64,
            mean_kl: total_kl / num_responses.max(1) as f64,
            mean_response_len: total_len / num_responses.max(1) as f64,
            update_tokens,
            grad_norm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tlt_model::ModelConfig;
    use tlt_workload::TaskGenerator;

    /// Build rollout groups whose "good" responses are gold answers and whose "bad"
    /// responses are wrong answers — a controlled reward signal.
    fn controlled_groups(target: &TinyLm, n_groups: usize) -> Vec<RolloutGroup> {
        let mut gen = TaskGenerator::new(target.config.vocab_size);
        let mut rng = StdRng::seed_from_u64(77);
        (0..n_groups)
            .map(|_| {
                let task = gen.generate(&mut rng);
                let good = task.gold_response(2);
                let mut bad = task.gold_response(2);
                let idx = bad.len() - 2;
                bad[idx] = (task.answer() + 1) % task.vocab.modulus;
                RolloutGroup {
                    prompt: task.prompt_tokens(),
                    responses: vec![good.clone(), bad.clone(), good, bad],
                    rewards: vec![1.0, 0.0, 1.0, 0.0],
                }
            })
            .collect()
    }

    #[test]
    fn train_step_produces_finite_metrics() {
        let mut target = TinyLm::new(ModelConfig::micro(), 50);
        let reference = target.reference_copy();
        let mut trainer = PolicyTrainer::new(reference, RlConfig::default());
        let groups = controlled_groups(&target, 3);
        let metrics = trainer.train_step(&mut target, &groups);
        assert!((0.0..=1.0).contains(&metrics.mean_reward));
        assert!(metrics.mean_kl.is_finite());
        assert!(metrics.update_tokens > 0);
        assert!(metrics.grad_norm > 0.0);
        assert_eq!(trainer.steps(), 1);
    }

    #[test]
    fn training_raises_probability_of_rewarded_responses() {
        let mut target = TinyLm::new(ModelConfig::micro(), 51);
        let reference = target.reference_copy();
        let mut trainer = PolicyTrainer::new(
            reference,
            RlConfig {
                kl_coef: 0.0,
                lr: 2e-2,
                ..RlConfig::default()
            },
        );
        let groups = controlled_groups(&target, 4);
        // Log-prob of the *correct answer digit* (the token that distinguishes the
        // rewarded response from the unrewarded one) before and after training.
        let answer_logprob = |model: &TinyLm| -> f32 {
            groups
                .iter()
                .map(|g| {
                    let mut tokens = g.prompt.clone();
                    tokens.extend_from_slice(&g.responses[0]);
                    // Gold response layout: [think, think, ANSWER, digit, EOS]; the
                    // digit sits 2 positions before the end.
                    let digit_pos = tokens.len() - 2;
                    model.sequence_logprobs(&tokens)[digit_pos - 1]
                })
                .sum()
        };
        let before = answer_logprob(&target);
        for _ in 0..15 {
            trainer.train_step(&mut target, &groups);
        }
        let after = answer_logprob(&target);
        assert!(
            after > before,
            "the rewarded answer should become more likely: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn kl_penalty_limits_drift_from_reference() {
        let make = |kl_coef: f32| {
            let mut target = TinyLm::new(ModelConfig::micro(), 52);
            let reference = target.reference_copy();
            let mut trainer = PolicyTrainer::new(
                reference,
                RlConfig {
                    kl_coef,
                    lr: 2e-2,
                    ..RlConfig::default()
                },
            );
            let groups = controlled_groups(&target, 3);
            let mut last = 0.0;
            for _ in 0..10 {
                last = trainer.train_step(&mut target, &groups).mean_kl;
            }
            last
        };
        let kl_without_penalty = make(0.0);
        let kl_with_penalty = make(0.5);
        assert!(
            kl_with_penalty < kl_without_penalty,
            "KL penalty should reduce drift: {kl_with_penalty} vs {kl_without_penalty}"
        );
    }

    #[test]
    fn all_algorithms_run_a_step() {
        for algorithm in RlAlgorithm::all() {
            let mut target = TinyLm::new(ModelConfig::micro(), 53);
            let reference = target.reference_copy();
            let mut trainer = PolicyTrainer::new(
                reference,
                RlConfig {
                    algorithm,
                    ..RlConfig::default()
                },
            );
            let groups = controlled_groups(&target, 2);
            let metrics = trainer.train_step(&mut target, &groups);
            assert!(metrics.mean_reward.is_finite(), "{}", algorithm.name());
        }
    }

    #[test]
    #[should_panic(expected = "invalid rollout group")]
    fn mismatched_rewards_panic() {
        let mut target = TinyLm::new(ModelConfig::micro(), 54);
        let reference = target.reference_copy();
        let mut trainer = PolicyTrainer::new(reference, RlConfig::default());
        let bad = RolloutGroup {
            prompt: vec![1, 2],
            responses: vec![vec![3]],
            rewards: vec![1.0, 0.0],
        };
        trainer.train_step(&mut target, &[bad]);
    }

    #[test]
    fn empty_responses_are_skipped_gracefully() {
        let mut target = TinyLm::new(ModelConfig::micro(), 55);
        let reference = target.reference_copy();
        let mut trainer = PolicyTrainer::new(reference, RlConfig::default());
        let group = RolloutGroup {
            prompt: vec![1, 2, 3],
            responses: vec![vec![], vec![4, 5, 6]],
            rewards: vec![0.0, 1.0],
        };
        let metrics = trainer.train_step(&mut target, &[group]);
        assert!(metrics.mean_reward.is_finite());
    }
}

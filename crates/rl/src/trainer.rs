//! Token-level policy optimisation (the "inference" and "training" stages of Figure 4).
//!
//! The trainer is rollout-engine agnostic: it consumes prompt groups with their
//! already-generated responses and rewards (produced by either vanilla or speculative
//! decoding — TLT's losslessness guarantee means the two are interchangeable), runs
//! the reference/policy log-probability computation, forms the GRPO loss with a KL
//! penalty toward the frozen reference model, and applies the policy-gradient update
//! to the target model's trainable tail.
//!
//! Only the tail is trained, so the frozen trunk's output over a response is
//! what the rollout already computed (`GenerationResult::trunk` in
//! `tlt-rollout`). A product loop hands each group with those rows to
//! [`PolicyTrainer::accumulate_group`] right after its rollout, then applies
//! the step with [`PolicyTrainer::finish_step`]. [`PolicyTrainer::train_step`]
//! is the same step over a batch of groups, recomputing every trunk.

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
    /// is the *exact* KL ([`tlt_model::kl`]); production systems report a sampled
    /// estimate instead.
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
/// layers but the last) for the whole run. Every step relies on that: one trunk
/// output per response feeds both tails. A target whose trunk differs from the
/// reference's is rejected.
#[derive(Debug)]
pub struct PolicyTrainer {
    config: RlConfig,
    reference: TinyLm,
    adam: Adam,
    steps: u64,
    /// What the open step has accumulated.
    step: StepSums,
    /// REINFORCE++ groups with their trunks, held until
    /// [`PolicyTrainer::finish_step`]: its advantages normalise over the batch.
    held: Vec<(RolloutGroup, Vec<Mat>)>,
    // Scratch reused across every response and position of every step.
    tokens: Vec<TokenId>,
    probs: Vec<f32>,
    kl_grad: Vec<f32>,
}

/// Sums of the open step, in response order.
#[derive(Debug, Default)]
struct StepSums {
    reward: f64,
    kl: f64,
    len: f64,
    responses: usize,
    update_tokens: usize,
    grads: Option<PolicyGrads>,
}

impl PolicyTrainer {
    /// Creates a trainer with `reference` as the frozen KL anchor (typically a clone
    /// of the target at RL step 0).
    pub fn new(reference: TinyLm, config: RlConfig) -> Self {
        let model = reference.config;
        PolicyTrainer {
            config,
            reference,
            adam: Adam::new(AdamConfig {
                lr: config.lr,
                ..AdamConfig::default()
            }),
            steps: 0,
            step: StepSums::default(),
            held: Vec::new(),
            tokens: Vec::new(),
            probs: Vec::with_capacity(model.vocab_size),
            kl_grad: Vec::with_capacity(model.vocab_size),
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

    /// Runs one RL training step over the rollout groups, updating `target` in place:
    /// [`PolicyTrainer::finish_step`] over the groups, with every response's trunk
    /// recomputed (`TinyLm::trunk_forward`) instead of taken from its rollout.
    ///
    /// # Panics
    ///
    /// Panics if any group fails validation, or if `target`'s frozen trunk is not
    /// the reference's (see [`PolicyTrainer`]).
    pub fn train_step(&mut self, target: &mut TinyLm, groups: &[RolloutGroup]) -> StepMetrics {
        for g in groups {
            g.validate().expect("invalid rollout group");
        }
        self.check_trunk(target);
        let rewards: Vec<&[f32]> = groups.iter().map(|g| g.rewards.as_slice()).collect();
        let advantages = compute_advantages(self.config.algorithm, &rewards);
        for (group, advs) in groups.iter().zip(&advantages) {
            self.accumulate(target, group, advs, None);
        }
        self.finish_step(target)
    }

    /// Adds one group to the open step from the trunk rows its rollout
    /// captured (`trunks[i]` is `GenerationResult::trunk` of `responses[i]`):
    /// the trunk runs over the prompt only, then the step proceeds as in
    /// [`PolicyTrainer::train_step`]. The trunks are freed on return, so a loop
    /// calling this after each group's rollout holds one group's at a time.
    /// REINFORCE++ normalises over the batch: its groups wait for
    /// [`PolicyTrainer::finish_step`].
    ///
    /// # Panics
    ///
    /// Panics if the group fails validation, `trunks` does not hold one
    /// `(len - 1) x hidden` matrix per response, or `target`'s frozen trunk is
    /// not the reference's.
    pub fn accumulate_group(&mut self, target: &TinyLm, group: &RolloutGroup, trunks: Vec<Mat>) {
        group.validate().expect("invalid rollout group");
        self.check_trunk(target);
        assert_eq!(
            trunks.len(),
            group.responses.len(),
            "one captured trunk per response"
        );
        for (response, trunk) in group.responses.iter().zip(&trunks) {
            assert_eq!(
                trunk.shape(),
                (response.len().saturating_sub(1), target.config.hidden),
                "a captured trunk holds one row per response token but the last"
            );
        }
        if self.config.algorithm == RlAlgorithm::ReinforcePlusPlus {
            self.held.push((group.clone(), trunks));
            return;
        }
        let advantages = compute_advantages(self.config.algorithm, &[&group.rewards]);
        self.accumulate(target, group, &advantages[0], Some(&trunks));
    }

    /// Closes the step [`PolicyTrainer::accumulate_group`] opened: averages the
    /// accumulated gradient over the responses, clips its global norm at 1.0,
    /// applies one Adam update to `target`'s tail and returns the step's metrics.
    pub fn finish_step(&mut self, target: &mut TinyLm) -> StepMetrics {
        let held = std::mem::take(&mut self.held);
        let rewards: Vec<&[f32]> = held.iter().map(|(g, _)| g.rewards.as_slice()).collect();
        let advantages = compute_advantages(self.config.algorithm, &rewards);
        for ((group, trunks), advs) in held.iter().zip(&advantages) {
            self.accumulate(target, group, advs, Some(trunks));
        }

        let sums = std::mem::take(&mut self.step);
        let mut grad_norm = 0.0;
        if let Some(mut grads) = sums.grads {
            if sums.responses > 1 {
                grads.scale(1.0 / sums.responses as f32);
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

        let responses = sums.responses.max(1) as f64;
        StepMetrics {
            mean_reward: sums.reward / responses,
            mean_kl: sums.kl / responses,
            mean_response_len: sums.len / responses,
            update_tokens: sums.update_tokens,
            grad_norm,
        }
    }

    /// Once per step: only the tail ever changes, and only in `finish_step`.
    fn check_trunk(&self, target: &TinyLm) {
        let step_open = self.step.responses > 0 || !self.held.is_empty();
        assert!(
            step_open || target.shares_trunk_with(&self.reference),
            "target and reference trunks differ: the policy trainer updates only the \
             target's last layer, final norm and LM head, and needs every other weight \
             equal to the reference's"
        );
    }

    /// The inference and training stages over one group's responses, added to
    /// the open step. Each response's trunk is the prompt's rows followed by
    /// its captured rows, or recomputed when `captured` is `None`.
    fn accumulate(
        &mut self,
        target: &TinyLm,
        group: &RolloutGroup,
        advantages: &[f32],
        captured: Option<&[Mat]>,
    ) {
        let prompt_len = group.prompt.len();
        let (hidden, vocab) = (target.config.hidden, target.config.vocab_size);
        let mut prompt_trunk: Option<Mat> = None;
        for (i, ((response, &reward), &advantage)) in group
            .responses
            .iter()
            .zip(&group.rewards)
            .zip(advantages)
            .enumerate()
        {
            let sums = &mut self.step;
            sums.reward += reward as f64;
            sums.len += response.len() as f64;
            sums.responses += 1;

            // Full sequence (prompt + response), truncated for update cost.
            let len = (prompt_len + response.len().min(self.config.max_update_tokens))
                .min(target.config.max_seq_len);
            if len <= prompt_len {
                continue;
            }
            self.tokens.clear();
            self.tokens.extend_from_slice(&group.prompt);
            self.tokens.extend_from_slice(&response[..len - prompt_len]);
            let response_positions = len - prompt_len;

            // Inference stage: the frozen trunk's output over the sequence feeds
            // the policy tail (recorded for the update) and the reference tail.
            let trunk = match captured {
                Some(captured) => {
                    let prompt_rows =
                        prompt_trunk.get_or_insert_with(|| target.trunk_forward(&group.prompt));
                    let mut trunk = Mat::zeros(0, hidden);
                    trunk.reserve_rows(len - 1, hidden);
                    trunk.extend_rows_range(prompt_rows, 0, prompt_len);
                    trunk.extend_rows_range(&captured[i], 0, len - 1 - prompt_len);
                    trunk
                }
                None => target.trunk_forward(&self.tokens[..len - 1]),
            };
            let ref_logits = self.reference.tail_logits(&trunk);
            let mut fwd = target.forward_tail_for_update(&trunk);

            // Training stage: policy-gradient + KL-penalty gradient on logits,
            // applied only at response positions. The full policy distribution
            // and the log-ratio needed for the KL gradient double as the source
            // of the exact per-token KL reported in the metrics. The gradient
            // overwrites the policy's logits row by row, and the trunk and the
            // reference's logits go before the backward (the memory peak).
            let d_logits = &mut fwd.logits;
            d_logits.as_mut_slice()[..(prompt_len - 1) * vocab].fill(0.0);
            let norm = response_positions as f32;
            let mut response_kl = 0.0f64;
            for pos in prompt_len - 1..len - 1 {
                let next = self.tokens[pos + 1] as usize;
                response_kl += kl_grad_from_logits_into(
                    d_logits.row(pos),
                    ref_logits.row(pos),
                    &mut self.probs,
                    &mut self.kl_grad,
                );
                for (v, d) in d_logits.row_mut(pos).iter_mut().enumerate() {
                    let indicator = if v == next { 1.0 } else { 0.0 };
                    // d/dz of [-A * log pi(next)] is A * (p - onehot).
                    *d = (advantage * (self.probs[v] - indicator)
                        + self.config.kl_coef * self.kl_grad[v])
                        / norm;
                }
            }
            drop((trunk, ref_logits));
            let sums = &mut self.step;
            sums.update_tokens += response_positions;
            sums.kl += response_kl / response_positions as f64;

            let grads = target.backward_for_update(&fwd, &fwd.logits);
            match sums.grads.as_mut() {
                Some(acc) => acc.accumulate(&grads),
                None => sums.grads = Some(grads),
            }
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

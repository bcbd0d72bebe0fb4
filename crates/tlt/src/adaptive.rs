//! Token-level end-to-end experiment: real GRPO training of the tiny target model
//! with speculative rollouts and an adaptively trained drafter.
//!
//! This is the substrate behind Figure 12 (reward curves of VeRL vs TLT), Figure 15
//! (drafter accuracy during adaptive training, with dips at target updates),
//! Figure 16 / Table 6 (accept rates of vanilla vs adaptive drafters against the
//! post-RL target). Everything here runs on the real tiny transformer: rollouts are
//! generated token by token, the drafter is trained with gradient descent on cached
//! hidden states, and the policy is updated with GRPO.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tlt_draft::{
    DataBuffer, DataBufferConfig, DraftModel, DrafterTrainer, FeatureSource, TrainerConfig,
    TrainingSample,
};
use tlt_model::{ModelConfig, SamplingParams, TinyLm, TokenId};
use tlt_rl::{PolicyTrainer, RlConfig, RolloutGroup};
use tlt_rollout::{speculative_generate, vanilla_generate, SdStrategy, SpecDrafter};
use tlt_workload::TaskGenerator;

/// Configuration of a token-level RL experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenExperimentConfig {
    /// Tiny-model architecture.
    pub model: ModelConfig,
    /// RL algorithm settings.
    pub rl: RlConfig,
    /// Number of RL steps.
    pub num_steps: usize,
    /// Prompts per step.
    pub prompts_per_step: usize,
    /// Responses per prompt (GRPO group size).
    pub group_size: usize,
    /// Maximum generated tokens per response.
    pub max_new_tokens: usize,
    /// Rollout sampling parameters.
    pub sampling: SamplingParams,
    /// Whether rollouts use speculative decoding (TLT) or vanilla decoding (VeRL).
    pub use_speculative: bool,
    /// Whether the drafter is spot-trained after every RL step (adaptive drafter).
    pub adapt_drafter: bool,
    /// Drafter training iterations per RL step.
    pub drafter_iterations_per_step: usize,
    /// Speculative strategy used by the token-level engine (chain drafting).
    pub sd_strategy: SdStrategy,
    /// Random seed.
    pub seed: u64,
}

impl TokenExperimentConfig {
    /// A small configuration suitable for tests and the quickstart example.
    pub fn small(use_speculative: bool, adapt_drafter: bool) -> Self {
        TokenExperimentConfig {
            model: ModelConfig::micro(),
            rl: RlConfig::default(),
            num_steps: 3,
            prompts_per_step: 6,
            group_size: 4,
            max_new_tokens: 24,
            sampling: SamplingParams {
                temperature: 0.9,
                top_k: None,
            },
            use_speculative,
            adapt_drafter,
            drafter_iterations_per_step: 6,
            sd_strategy: SdStrategy {
                draft_depth: 4,
                top_k: 1,
                tokens_to_verify: 4,
            },
            seed: 7,
        }
    }
}

/// One point of the drafter accuracy curve (Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrafterAccuracyPoint {
    /// Cumulative drafter-training iteration.
    pub iteration: u64,
    /// Top-3 next-token accuracy against held-out rollout data.
    pub top3_accuracy: f64,
    /// Whether this point was measured immediately after a target-model update
    /// (where the paper observes a temporary dip).
    pub after_target_update: bool,
}

/// Report of a token-level experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenExperimentReport {
    /// Mean rule-based reward per RL step (Figure 12's curve).
    pub reward_curve: Vec<f64>,
    /// Mean per-token KL from the reference model per step.
    pub kl_curve: Vec<f64>,
    /// Mean response length per step.
    pub response_len_curve: Vec<f64>,
    /// Mean accept length per RL step (speculative runs only; 1.0 otherwise).
    pub accept_length_curve: Vec<f64>,
    /// Drafter accuracy trajectory (adaptive runs only).
    pub drafter_accuracy: Vec<DrafterAccuracyPoint>,
    /// Total wall-clock target forward passes spent in rollout (a hardware-free
    /// proxy for rollout cost: speculative decoding reduces it).
    pub rollout_target_steps: usize,
    /// Total tokens generated across all rollouts.
    pub generated_tokens: usize,
}

/// Runs the token-level experiment and returns its report together with the final
/// target model and drafter (for follow-up acceptance measurements).
pub fn run_token_experiment(
    config: &TokenExperimentConfig,
) -> (TokenExperimentReport, TinyLm, DraftModel) {
    let mut target = TinyLm::new(config.model, config.seed);
    let reference = target.reference_copy();
    let mut policy_trainer = PolicyTrainer::new(reference, config.rl);
    let mut drafter_trainer =
        DrafterTrainer::new(&target, TrainerConfig::default(), config.seed + 1);
    let mut buffer = DataBuffer::new(DataBufferConfig {
        retained_long_samples: 16,
        ..DataBufferConfig::default()
    });
    let mut task_gen = TaskGenerator::new(config.model.vocab_size);
    let vocab = task_gen.vocabulary();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut report = TokenExperimentReport {
        reward_curve: Vec::new(),
        kl_curve: Vec::new(),
        response_len_curve: Vec::new(),
        accept_length_curve: Vec::new(),
        drafter_accuracy: Vec::new(),
        rollout_target_steps: 0,
        generated_tokens: 0,
    };

    for step in 0..config.num_steps {
        let tasks = task_gen.generate_batch(config.prompts_per_step, &mut rng);

        // --- Rollout stage ---
        let mut groups = Vec::with_capacity(tasks.len());
        let mut accept_sum = 0.0;
        let mut accept_count = 0usize;
        for task in &tasks {
            let prompt = task.prompt_tokens();
            let mut responses = Vec::with_capacity(config.group_size);
            let mut rewards = Vec::with_capacity(config.group_size);
            let mut trunks = Vec::with_capacity(config.group_size);
            for _ in 0..config.group_size {
                let result = if config.use_speculative {
                    speculative_generate(
                        &target,
                        &SpecDrafter::Learned(&drafter_trainer.drafter),
                        &prompt,
                        config.max_new_tokens,
                        config.sd_strategy,
                        config.sampling,
                        Some(vocab.eos()),
                        &mut rng,
                    )
                } else {
                    vanilla_generate(
                        &target,
                        &prompt,
                        config.max_new_tokens,
                        config.sampling,
                        Some(vocab.eos()),
                        &mut rng,
                    )
                };
                report.rollout_target_steps += result.target_steps;
                report.generated_tokens += result.tokens.len();
                if !result.accept_lengths.is_empty() {
                    accept_sum += result.mean_accept_length();
                    accept_count += 1;
                }
                rewards.push(task.reward(&result.tokens));
                responses.push(result.tokens);
                trunks.push(result.trunk);
            }
            let group = RolloutGroup {
                prompt,
                responses,
                rewards,
            };
            // Inference + training stages, streamed: the group's trunk rows are
            // the rollout's own and are freed once its gradients are in.
            policy_trainer.accumulate_group(&target, &group, trunks);
            groups.push(group);
        }
        report.accept_length_curve.push(if accept_count == 0 {
            1.0
        } else {
            accept_sum / accept_count as f64
        });

        // --- Spot drafter training on rollout by-products (idle-bubble work) ---
        if config.adapt_drafter {
            for (i, group) in groups.iter().enumerate().take(4) {
                if let Some(response) = group.responses.iter().max_by_key(|r| r.len()) {
                    if response.len() >= 3 {
                        let mut tokens: Vec<TokenId> = group.prompt.clone();
                        tokens.extend_from_slice(response);
                        buffer.push(TrainingSample::from_rollout(
                            &target,
                            FeatureSource::LastLayer,
                            &tokens,
                            response.len(),
                            step as u64,
                            i as u64,
                        ));
                    }
                }
            }
            for _ in 0..config.drafter_iterations_per_step {
                let batch = buffer.sample_batch(4, &mut rng);
                if let Some(metrics) = drafter_trainer.train_iteration(&target, &batch) {
                    report.drafter_accuracy.push(DrafterAccuracyPoint {
                        iteration: metrics.iteration,
                        top3_accuracy: metrics.top3_accuracy,
                        after_target_update: false,
                    });
                }
            }
            buffer.advance_step();
        }

        // --- Policy update over the groups accumulated during rollout ---
        let metrics = policy_trainer.finish_step(&mut target);
        report.reward_curve.push(metrics.mean_reward);
        report.kl_curve.push(metrics.mean_kl);
        report.response_len_curve.push(metrics.mean_response_len);

        // Measure the drafter's accuracy right after the target drifted: this is the
        // "dip" of Figure 15.
        if config.adapt_drafter {
            let eval_batch = buffer.sample_batch(4, &mut rng);
            if !eval_batch.is_empty() {
                let (_, top3) = drafter_trainer.evaluate(&target, &eval_batch);
                report.drafter_accuracy.push(DrafterAccuracyPoint {
                    iteration: drafter_trainer.iterations(),
                    top3_accuracy: top3,
                    after_target_update: true,
                });
            }
        }
    }

    (report, target, drafter_trainer.drafter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_and_speculative_experiments_produce_comparable_rewards() {
        // Figure 12's claim, at tiny scale: using speculative rollouts does not change
        // the learning signal (rewards stay in the same range and are finite).
        let (verl, _, _) = run_token_experiment(&TokenExperimentConfig::small(false, false));
        let (tlt, _, _) = run_token_experiment(&TokenExperimentConfig::small(true, true));
        assert_eq!(verl.reward_curve.len(), tlt.reward_curve.len());
        for (a, b) in verl.reward_curve.iter().zip(tlt.reward_curve.iter()) {
            assert!((0.0..=1.0).contains(a));
            assert!((0.0..=1.0).contains(b));
        }
        assert!(tlt.generated_tokens > 0);
        assert!(verl.generated_tokens > 0);
    }

    #[test]
    fn speculative_rollouts_use_fewer_target_steps_per_token() {
        let (verl, _, _) = run_token_experiment(&TokenExperimentConfig::small(false, false));
        let (tlt, _, _) = run_token_experiment(&TokenExperimentConfig::small(true, true));
        let verl_steps_per_token = verl.rollout_target_steps as f64 / verl.generated_tokens as f64;
        let tlt_steps_per_token = tlt.rollout_target_steps as f64 / tlt.generated_tokens as f64;
        assert!(
            tlt_steps_per_token < verl_steps_per_token,
            "speculative decoding should reduce target steps per token: {tlt_steps_per_token:.3} vs {verl_steps_per_token:.3}"
        );
    }

    #[test]
    fn adaptive_run_produces_drafter_accuracy_curve() {
        let (report, _, drafter) = run_token_experiment(&TokenExperimentConfig::small(true, true));
        assert!(!report.drafter_accuracy.is_empty());
        assert!(report
            .drafter_accuracy
            .iter()
            .any(|p| p.after_target_update));
        assert!(report
            .drafter_accuracy
            .iter()
            .any(|p| !p.after_target_update));
        assert!(drafter.version > 0, "drafter must have been updated");
        // Accept lengths are recorded for speculative runs.
        assert!(report.accept_length_curve.iter().all(|&a| a >= 1.0));
    }

    #[test]
    fn non_adaptive_run_has_no_drafter_curve() {
        let (report, _, drafter) =
            run_token_experiment(&TokenExperimentConfig::small(false, false));
        assert!(report.drafter_accuracy.is_empty());
        assert_eq!(drafter.version, 0);
        assert!(report
            .accept_length_curve
            .iter()
            .all(|&a| (a - 1.0).abs() < 1e-9));
    }
}

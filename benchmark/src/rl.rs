//! `rl_vanilla` and `rl_tlt`: token-level GRPO on `ModelConfig::tiny()`.
//!
//! The pair is read as mechanism against bypass: `rl_vanilla` never touches
//! `tlt-draft` or the speculative path, `rl_tlt` runs both. On a CPU tiny
//! model SD lowers target forward passes per token but not wall time, so the
//! pair never says "SD is slower".
//!
//! `run_token_experiment` takes one `seed` that also initialises the weights,
//! and a random tiny model's EOS habit sets every timing: between weight
//! seeds 0 and 1 a rep goes from 0.5 s to 3.0 s and tokens/s from 20k to 15k,
//! and one GRPO step on a different sample path moves the mean response
//! length by half. No code change moves the numbers that much, so the
//! trajectory is pinned ([`RL_SEED`]) and `--seed` draws only the prompts of
//! the losslessness pre-check.

use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Digest};
use crate::{Bench, Kind, Layers, Rep, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt::{DrafterAccuracyPoint, TokenExperimentConfig, TokenExperimentReport};
use tlt_draft::{
    DataBuffer, DataBufferConfig, DraftModel, DrafterTrainer, FeatureSource, TrainerConfig,
    TrainingSample,
};
use tlt_model::{ModelConfig, SamplingParams, TinyLm, TokenId};
use tlt_rl::{PolicyTrainer, RolloutGroup};
use tlt_rollout::{speculative_generate, vanilla_generate, SpecDrafter};
use tlt_workload::TaskGenerator;

/// Pinned trajectory seed: weights whose responses are long-tailed (median
/// near 70 tokens, the longest few at the 448-token cap).
pub const RL_SEED: u64 = 3;

/// The experiment both workloads run; they differ in the two SD switches.
pub fn config(kind: Kind, scale: Scale) -> TokenExperimentConfig {
    let tlt_on = kind == Kind::RlTlt;
    let (num_steps, prompts_per_step, group_size, max_new_tokens) = match scale {
        Scale::Full => (3, 8, 8, 448),
        Scale::Smoke => (2, 2, 4, 48),
    };
    TokenExperimentConfig {
        model: ModelConfig::tiny(),
        num_steps,
        prompts_per_step,
        group_size,
        max_new_tokens,
        sampling: SamplingParams {
            temperature: 0.9,
            top_k: None,
        },
        seed: RL_SEED,
        ..TokenExperimentConfig::small(tlt_on, tlt_on)
    }
}

fn digest(report: &TokenExperimentReport) -> u64 {
    let mut d = Digest::default();
    d.u64(report.generated_tokens as u64)
        .u64(report.rollout_target_steps as u64)
        .f64s(&report.reward_curve)
        .f64s(&report.kl_curve)
        .f64s(&report.response_len_curve)
        .f64s(&report.accept_length_curve)
        .u64(report.drafter_accuracy.len() as u64);
    for p in &report.drafter_accuracy {
        d.u64(p.iteration)
            .f64(p.top3_accuracy)
            .u64(u64::from(p.after_target_update));
    }
    d.finish()
}

/// A prepared RL workload.
pub struct RlBench {
    kind: Kind,
    config: TokenExperimentConfig,
    check_seed: u64,
}

impl RlBench {
    /// Builds the config and runs the warm-up: a 2-step run of it.
    pub fn setup(kind: Kind, seed: u64, scale: Scale) -> Self {
        let config = config(kind, scale);
        let warm = TokenExperimentConfig {
            num_steps: 2,
            ..config
        };
        std::hint::black_box(tlt::run_token_experiment(&warm));
        RlBench {
            kind,
            config,
            check_seed: seed,
        }
    }

    /// From outside, a failed rollout shows only in its step's means: a step
    /// whose mean reward is not finite or whose mean length exceeds the cap
    /// fails all its rollouts.
    fn rep_of(&self, report: &TokenExperimentReport) -> Rep {
        let per_step = (self.config.prompts_per_step * self.config.group_size) as u64;
        let bad_steps = report
            .reward_curve
            .iter()
            .zip(&report.response_len_curve)
            .filter(|(r, len)| !r.is_finite() || **len > self.config.max_new_tokens as f64)
            .count() as u64;
        Rep {
            work: report.generated_tokens as f64,
            attempted: self.config.num_steps as u64 * per_step,
            failed: bad_steps * per_step,
            digest: digest(report),
        }
    }
}

impl Bench for RlBench {
    fn precheck(&self) -> Result<(), String> {
        if self.kind != Kind::RlTlt {
            return Ok(());
        }
        // Losslessness: greedy speculative decoding equals greedy vanilla
        // decoding token for token, on 8 prompts drawn from `--seed`.
        let target = TinyLm::new(self.config.model, RL_SEED);
        let drafter = DraftModel::new(&target, FeatureSource::LastLayer, RL_SEED + 1);
        let mut tasks = TaskGenerator::new(self.config.model.vocab_size);
        let eos = tasks.vocabulary().eos();
        let mut rng = StdRng::seed_from_u64(self.check_seed);
        for task in tasks.generate_batch(8, &mut rng) {
            let prompt = task.prompt_tokens();
            let vanilla = vanilla_generate(
                &target,
                &prompt,
                64,
                SamplingParams::greedy(),
                Some(eos),
                &mut StdRng::seed_from_u64(0),
            );
            let speculative = speculative_generate(
                &target,
                &SpecDrafter::Learned(&drafter),
                &prompt,
                64,
                self.config.sd_strategy,
                SamplingParams::greedy(),
                Some(eos),
                &mut StdRng::seed_from_u64(0),
            );
            if vanilla.tokens != speculative.tokens {
                return Err(format!(
                    "rl_tlt: greedy speculative_generate diverges from vanilla_generate on prompt {prompt:?}"
                ));
            }
        }
        Ok(())
    }

    fn rep(&mut self) -> Rep {
        let (report, _, _) = tlt::run_token_experiment(&self.config);
        self.rep_of(&report)
    }

    /// `tlt::run_token_experiment` recomposed call for call from the layers'
    /// public functions. Any drift from the product's loop shows as a digest
    /// mismatch in the caller.
    fn traced_rep(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Rep {
        let config = &self.config;
        let root = tr.open("bench.rep", 0);

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

        // (seconds, response length) of every generate call.
        let mut gens: Vec<(f64, usize)> = Vec::new();
        let mut failed = 0u64;
        let mut sd_round_tokens = 0usize;
        let mut sd_rounds = 0usize;
        let mut train_step_s = Vec::new();
        let mut train_tokens = 0usize;
        let mut train_iters = 0u64;
        let mut buffer_bytes_peak = 0usize;
        let mut top3_last = 0.0;
        let (mut taskgen_s, mut feature_s, mut train_s, mut eval_s) = (0.0, 0.0, 0.0, 0.0);

        for step in 0..config.num_steps {
            let unit = step as u32;
            let step_span = tr.open("rl.step", unit);
            let (tasks, secs) = tr.time("workload.taskgen", unit, || {
                task_gen.generate_batch(config.prompts_per_step, &mut rng)
            });
            taskgen_s += secs;

            // --- Rollout stage ---
            let mut groups = Vec::with_capacity(tasks.len());
            let mut accept_sum = 0.0;
            let mut accept_count = 0usize;
            for task in &tasks {
                let prompt = task.prompt_tokens();
                let mut responses = Vec::with_capacity(config.group_size);
                let mut rewards = Vec::with_capacity(config.group_size);
                for _ in 0..config.group_size {
                    let (result, secs) = tr.time("rollout.gen", unit, || {
                        if config.use_speculative {
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
                        }
                    });
                    gens.push((secs, result.tokens.len()));
                    report.rollout_target_steps += result.target_steps;
                    report.generated_tokens += result.tokens.len();
                    if !result.accept_lengths.is_empty() {
                        accept_sum += result.mean_accept_length();
                        accept_count += 1;
                        sd_round_tokens += result.accept_lengths.iter().sum::<usize>();
                        sd_rounds += result.accept_lengths.len();
                    }
                    let reward = task.reward(&result.tokens);
                    if result.tokens.len() > config.max_new_tokens || !reward.is_finite() {
                        failed += 1;
                    }
                    rewards.push(reward);
                    responses.push(result.tokens);
                }
                groups.push(RolloutGroup {
                    prompt,
                    responses,
                    rewards,
                });
            }
            report.accept_length_curve.push(if accept_count == 0 {
                1.0
            } else {
                accept_sum / accept_count as f64
            });

            // --- Spot drafter training on rollout by-products ---
            if config.adapt_drafter {
                for (i, group) in groups.iter().enumerate().take(4) {
                    if let Some(response) = group.responses.iter().max_by_key(|r| r.len()) {
                        if response.len() >= 3 {
                            let mut tokens: Vec<TokenId> = group.prompt.clone();
                            tokens.extend_from_slice(response);
                            let (sample, secs) = tr.time("draft.feature", unit, || {
                                TrainingSample::from_rollout(
                                    &target,
                                    FeatureSource::LastLayer,
                                    &tokens,
                                    response.len(),
                                    step as u64,
                                    i as u64,
                                )
                            });
                            feature_s += secs;
                            buffer.push(sample);
                        }
                    }
                }
                buffer_bytes_peak = buffer_bytes_peak.max(buffer.bytes());
                for _ in 0..config.drafter_iterations_per_step {
                    let batch = buffer.sample_batch(4, &mut rng);
                    let (metrics, secs) = tr.time("draft.train", unit, || {
                        drafter_trainer.train_iteration(&target, &batch)
                    });
                    train_s += secs;
                    train_iters += 1;
                    if let Some(metrics) = metrics {
                        top3_last = metrics.top3_accuracy;
                        report.drafter_accuracy.push(DrafterAccuracyPoint {
                            iteration: metrics.iteration,
                            top3_accuracy: metrics.top3_accuracy,
                            after_target_update: false,
                        });
                    }
                }
                buffer.advance_step();
            }

            // --- Inference + training stages (policy update) ---
            let (metrics, secs) = tr.time("rl.train_step", unit, || {
                policy_trainer.train_step(&mut target, &groups)
            });
            train_step_s.push(secs);
            train_tokens += metrics.update_tokens;
            report.reward_curve.push(metrics.mean_reward);
            report.kl_curve.push(metrics.mean_kl);
            report.response_len_curve.push(metrics.mean_response_len);

            if config.adapt_drafter {
                let eval_batch = buffer.sample_batch(4, &mut rng);
                if !eval_batch.is_empty() {
                    let ((_, top3), secs) = tr.time("draft.eval", unit, || {
                        drafter_trainer.evaluate(&target, &eval_batch)
                    });
                    eval_s += secs;
                    report.drafter_accuracy.push(DrafterAccuracyPoint {
                        iteration: drafter_trainer.iterations(),
                        top3_accuracy: top3,
                        after_target_update: true,
                    });
                }
            }
            tr.close(step_span);
        }
        tr.close(root);

        // --- Layer metrics ---
        let gen_s: f64 = gens.iter().map(|g| g.0).sum();
        let gen_ms: Vec<f64> = gens.iter().map(|g| g.0 * 1e3).collect();
        let lens: Vec<f64> = gens.iter().map(|g| g.1 as f64).collect();
        let tokens = report.generated_tokens as f64;
        layers.set("rollout.gen_s", gen_s);
        layers.set("rollout.gen_calls", gens.len() as f64);
        layers.set("rollout.tokens", tokens);
        layers.set("rollout.target_steps", report.rollout_target_steps as f64);
        layers.set("rollout.gen_ms_p50", stats::percentile(&gen_ms, 0.50));
        layers.set("rollout.gen_ms_p98", stats::percentile(&gen_ms, 0.98));
        layers.set(
            "rollout.target_steps_per_tok",
            report.rollout_target_steps as f64 / tokens.max(1.0),
        );
        layers.set("rollout.resp_len_p50", stats::percentile(&lens, 0.50));
        layers.set("rollout.resp_len_p98", stats::percentile(&lens, 0.98));
        layers.set("rollout.resp_len_max", stats::percentile(&lens, 1.0));
        // Share of generation time spent on the longest tenth of responses.
        let mut by_len = gens.clone();
        by_len.sort_by_key(|g| std::cmp::Reverse(g.1));
        let tail: f64 = by_len[..gens.len().div_ceil(10)].iter().map(|g| g.0).sum();
        layers.set(
            "rollout.tail_time_share",
            tail / gen_s.max(f64::MIN_POSITIVE),
        );
        let hooks = tlt_obs::hooks::snapshot();
        layers.set("model.decode_steps", hooks.decode_steps as f64);
        layers.set("model.prefill_tokens", hooks.prefill_tokens as f64);
        layers.set("rollout.sd_rounds", hooks.sd_rounds as f64);
        layers.set(
            "rollout.sd_accepted_tokens",
            hooks.sd_accepted_tokens as f64,
        );
        if sd_rounds > 0 {
            layers.set(
                "rollout.accept_len_mean",
                sd_round_tokens as f64 / sd_rounds as f64,
            );
            // Every round commits one target-sampled token besides the
            // accepted drafts, so accepted drafts = committed - rounds.
            let drafted = (sd_rounds * config.sd_strategy.draft_depth) as f64;
            layers.set(
                "rollout.draft_waste_ratio",
                1.0 - (sd_round_tokens - sd_rounds) as f64 / drafted,
            );
        }
        if config.adapt_drafter {
            layers.set("draft.feature_s", feature_s);
            layers.set("draft.train_s", train_s);
            layers.set("draft.train_iters", train_iters as f64);
            layers.set(
                "draft.train_iter_ms",
                train_s * 1e3 / train_iters.max(1) as f64,
            );
            layers.set("draft.eval_s", eval_s);
            layers.set("draft.top3_acc_last", top3_last);
            layers.set("draft.buffer_bytes_peak", buffer_bytes_peak as f64);
        }
        let step_ms: Vec<f64> = train_step_s.iter().map(|s| s * 1e3).collect();
        layers.set("rl.train_step_s", train_step_s.iter().sum());
        layers.set("rl.train_step_ms_p50", stats::percentile(&step_ms, 0.50));
        layers.set("rl.train_tokens", train_tokens as f64);
        layers.set(
            "rl.reward_mean_last",
            report.reward_curve.last().copied().unwrap_or(0.0),
        );
        layers.set(
            "rl.kl_mean_last",
            report.kl_curve.last().copied().unwrap_or(0.0),
        );
        layers.set("workload.taskgen_s", taskgen_s);

        let mut rep = self.rep_of(&report);
        rep.failed += failed;
        rep
    }

    fn probes(&self, layers: &mut Layers) {
        probes::model(layers);
        probes::obs(layers);
    }

    fn setup_layers(&self, _layers: &mut Layers) {}
}

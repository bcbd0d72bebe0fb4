//! `PolicyTrainer::train_step` and the streamed step
//! (`accumulate_group` per group, then `finish_step`) against the two-pass step
//! they replaced.
//!
//! The oracle is the previous `train_step` verbatim: a full policy forward
//! (`forward_for_update`) and a full reference forward (`prefill`) over every
//! response, fresh probability and KL-gradient vectors per position, and cloned
//! gradients into Adam. It lives only here. `train_step` runs the frozen trunk
//! once per response; the streamed step runs it once per prompt and takes the
//! response rows the rollout captured. Both must agree with the oracle bit for
//! bit on the step metrics and on every updated weight.
//!
//! One line of it is not the old one: the KL block calls the product's
//! `kl_grad_from_logits_into`, which reads log-probabilities off the logits
//! where the old step took the logarithm of every probability. That helper is
//! held to the old `kl_divergence` + `kl_grad_wrt_logits` by tolerance in
//! `kl_from_logits_matches_kl_from_probabilities`, so what stays bitwise here
//! is the trunk sharing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlt_model::kl::{kl_divergence, kl_grad_from_logits_into, kl_grad_wrt_logits};
use tlt_model::{
    probs_from_logits, Adam, AdamConfig, Mat, ModelConfig, PolicyGrads, SamplingParams, TinyLm,
    TokenId,
};
use tlt_rl::{compute_advantages, PolicyTrainer, RlAlgorithm, RlConfig, RolloutGroup, StepMetrics};

struct OracleTrainer {
    config: RlConfig,
    reference: TinyLm,
    adam: Adam,
}

impl OracleTrainer {
    fn new(reference: TinyLm, config: RlConfig) -> Self {
        OracleTrainer {
            config,
            reference,
            adam: Adam::new(AdamConfig {
                lr: config.lr,
                ..AdamConfig::default()
            }),
        }
    }

    fn train_step(&mut self, target: &mut TinyLm, groups: &[RolloutGroup]) -> StepMetrics {
        for g in groups {
            g.validate().expect("invalid rollout group");
        }
        let rewards: Vec<Vec<f32>> = groups.iter().map(|g| g.rewards.clone()).collect();
        let advantages = compute_advantages(self.config.algorithm, &rewards);

        let mut total_reward = 0.0f64;
        let mut total_kl = 0.0f64;
        let mut total_len = 0.0f64;
        let mut num_responses = 0usize;
        let mut update_tokens = 0usize;

        let mut accumulated: Option<PolicyGrads> = None;

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
                if response.is_empty() {
                    continue;
                }

                let mut tokens: Vec<TokenId> = group.prompt.clone();
                tokens.extend_from_slice(response);
                let max_len =
                    (group.prompt.len() + self.config.max_update_tokens).min(tokens.len());
                tokens.truncate(max_len.min(target.config.max_seq_len));
                if tokens.len() <= group.prompt.len() {
                    continue;
                }
                let response_positions = tokens.len() - group.prompt.len();

                let fwd = target.forward_for_update(&tokens[..tokens.len() - 1]);
                let (ref_out, _) = self.reference.prefill(&tokens[..tokens.len() - 1], false);

                let mut d_logits = Mat::zeros(fwd.logits.rows(), fwd.logits.cols());
                let norm = response_positions as f32;
                let mut response_kl = 0.0f64;
                for pos in group.prompt.len() - 1..tokens.len() - 1 {
                    let next = tokens[pos + 1] as usize;
                    let (mut probs, mut kl_grad) = (Vec::new(), Vec::new());
                    response_kl += kl_grad_from_logits_into(
                        fwd.logits.row(pos),
                        ref_out.logits.row(pos),
                        &mut probs,
                        &mut kl_grad,
                    );
                    let row = d_logits.row_mut(pos);
                    for v in 0..row.len() {
                        let indicator = if v == next { 1.0 } else { 0.0 };
                        row[v] = (advantage * (probs[v] - indicator)
                            + self.config.kl_coef * kl_grad[v])
                            / norm;
                    }
                    update_tokens += 1;
                }
                total_kl += response_kl / response_positions as f64;

                let grads = target.backward_for_update(&fwd, &d_logits);
                match accumulated.as_mut() {
                    Some(acc) => {
                        acc.last_layer.accumulate(&grads.last_layer);
                        for (a, b) in acc.final_norm.iter_mut().zip(&grads.final_norm) {
                            *a += b;
                        }
                        acc.lm_head.add_assign(&grads.lm_head);
                    }
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
            if grad_norm > 1.0 {
                grads.scale(1.0 / grad_norm as f32);
            }
            self.adam.begin_step();
            let lm_head_grad = grads.lm_head.clone();
            self.adam
                .update_mat("policy.lm_head", &mut target.lm_head, &lm_head_grad);
            let final_norm_grad = grads.final_norm.clone();
            self.adam.update_slice(
                "policy.final_norm",
                &mut target.final_norm,
                &final_norm_grad,
            );
            let last_idx = target.layers.len() - 1;
            self.adam.update_decoder_layer(
                "policy.last_layer",
                &mut target.layers[last_idx],
                &grads.last_layer,
            );
        }

        StepMetrics {
            mean_reward: total_reward / num_responses.max(1) as f64,
            mean_kl: total_kl / num_responses.max(1) as f64,
            mean_response_len: total_len / num_responses.max(1) as f64,
            update_tokens,
            grad_norm,
        }
    }
}

/// Cap on updated response tokens: low, so the unoptimised test build stays
/// quick while responses still run past it.
const MAX_UPDATE_TOKENS: usize = 48;

/// Random groups whose responses cover the step's branches: empty, short, past
/// `max_update_tokens`, and past the model's context window.
fn random_groups(config: &ModelConfig, rng: &mut StdRng) -> Vec<RolloutGroup> {
    let lens = [0, 3, 17, 60, config.max_seq_len];
    (0..3)
        .map(|_| {
            let mut tokens = |n: usize| -> Vec<TokenId> {
                (0..n)
                    .map(|_| rng.gen_range(0..config.vocab_size as u32))
                    .collect()
            };
            let prompt = tokens(5);
            let responses: Vec<Vec<TokenId>> = (0..4)
                .map(|_| {
                    let len = lens[tokens(1)[0] as usize % lens.len()];
                    tokens(len)
                })
                .collect();
            let rewards = responses
                .iter()
                .map(|r| (r.len() % 3) as f32 * 0.5)
                .collect();
            RolloutGroup {
                prompt,
                responses,
                rewards,
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_metrics(got: &StepMetrics, expected: &StepMetrics, label: &str) {
    assert_eq!(got.update_tokens, expected.update_tokens, "{label}");
    for (name, a, b) in [
        ("mean_reward", got.mean_reward, expected.mean_reward),
        ("mean_kl", got.mean_kl, expected.mean_kl),
        (
            "mean_response_len",
            got.mean_response_len,
            expected.mean_response_len,
        ),
        ("grad_norm", got.grad_norm, expected.grad_norm),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: {name} {a} vs {b}");
    }
}

/// Every weight the step updates, bit for bit.
fn assert_same_tail(got: &TinyLm, expected: &TinyLm, label: &str) {
    let (last, expected_last) = (
        got.layers.last().expect("layers"),
        expected.layers.last().expect("layers"),
    );
    for (name, a, b) in [
        (
            "lm_head",
            got.lm_head.as_slice(),
            expected.lm_head.as_slice(),
        ),
        ("final_norm", &got.final_norm[..], &expected.final_norm[..]),
        (
            "attn_norm",
            &last.attn_norm[..],
            &expected_last.attn_norm[..],
        ),
        ("wq", last.wq.as_slice(), expected_last.wq.as_slice()),
        ("wk", last.wk.as_slice(), expected_last.wk.as_slice()),
        ("wv", last.wv.as_slice(), expected_last.wv.as_slice()),
        ("wo", last.wo.as_slice(), expected_last.wo.as_slice()),
        ("mlp_norm", &last.mlp_norm[..], &expected_last.mlp_norm[..]),
        (
            "w_gate",
            last.w_gate.as_slice(),
            expected_last.w_gate.as_slice(),
        ),
        ("w_up", last.w_up.as_slice(), expected_last.w_up.as_slice()),
        (
            "w_down",
            last.w_down.as_slice(),
            expected_last.w_down.as_slice(),
        ),
    ] {
        assert_eq!(bits(a), bits(b), "{label}: {name}");
    }
}

fn assert_same_step(config: ModelConfig) {
    let mut target = TinyLm::new(config, 21);
    let mut oracle_target = target.clone();
    let rl = RlConfig {
        max_update_tokens: MAX_UPDATE_TOKENS,
        ..RlConfig::default()
    };
    let mut trainer = PolicyTrainer::new(target.reference_copy(), rl);
    let mut oracle = OracleTrainer::new(target.reference_copy(), rl);
    let mut rng = StdRng::seed_from_u64(22);
    for step in 0..3 {
        let groups = random_groups(&config, &mut rng);
        let metrics = trainer.train_step(&mut target, &groups);
        let expected = oracle.train_step(&mut oracle_target, &groups);
        assert!(metrics.update_tokens > 0);
        let label = format!("step {step}");
        assert_same_metrics(&metrics, &expected, &label);
        assert_same_tail(&target, &oracle_target, &label);
        // The trunk is never touched.
        assert!(target.shares_trunk_with(trainer.reference()));
    }
}

#[test]
fn shared_trunk_step_matches_the_two_pass_step_on_micro() {
    assert_same_step(ModelConfig::micro());
}

#[test]
fn shared_trunk_step_matches_the_two_pass_step_on_tiny() {
    assert_same_step(ModelConfig::tiny());
}

#[test]
fn shared_trunk_step_matches_the_two_pass_step_at_the_context_limit() {
    // Prompt plus update cap overruns the positional table: the clamp decides.
    assert_same_step(ModelConfig {
        max_seq_len: 40,
        ..ModelConfig::micro()
    });
}

#[test]
#[should_panic(expected = "target and reference trunks differ")]
fn target_with_a_different_trunk_is_rejected() {
    let mut target = TinyLm::new(ModelConfig::micro(), 23);
    let mut trainer = PolicyTrainer::new(target.reference_copy(), RlConfig::default());
    // A frozen weight moved: the reference tail can no longer reuse the trunk.
    target.layers[0].wq.as_mut_slice()[0] += 0.5;
    let group = RolloutGroup {
        prompt: vec![1, 2, 3],
        responses: vec![vec![4, 5, 6]],
        rewards: vec![1.0],
    };
    trainer.train_step(&mut target, &[group]);
}

/// Groups as a rollout hands them over: every response fits the context window
/// with its prompt, and comes with the trunk rows its generation captured
/// (`GenerationResult::trunk`, which `crates/rollout/tests/trunk_capture.rs`
/// holds to `trunk_forward`). Each group has an empty response, a one-token
/// one, one past `MAX_UPDATE_TOKENS`, and one that fills the context window.
fn rollout_groups(target: &TinyLm, rng: &mut StdRng) -> Vec<(RolloutGroup, Vec<Mat>)> {
    let config = target.config;
    (0..3)
        .map(|_| {
            let mut tokens = |n: usize| -> Vec<TokenId> {
                (0..n)
                    .map(|_| rng.gen_range(0..config.vocab_size as u32))
                    .collect()
            };
            let prompt = tokens(5);
            let fills_window = config.max_seq_len - prompt.len();
            let responses: Vec<Vec<TokenId>> = [0, 1, 17, MAX_UPDATE_TOKENS + 12, fills_window]
                .iter()
                .map(|&len| tokens(len.min(fills_window)))
                .collect();
            let trunks = responses
                .iter()
                .map(|response| {
                    let n = response.len().saturating_sub(1);
                    let mut sequence = prompt.clone();
                    sequence.extend_from_slice(&response[..n]);
                    target
                        .trunk_forward(&sequence)
                        .slice_rows(prompt.len(), sequence.len())
                })
                .collect();
            let rewards = tokens(responses.len())
                .iter()
                .map(|&t| (t % 3) as f32 * 0.5)
                .collect();
            let group = RolloutGroup {
                prompt,
                responses,
                rewards,
            };
            (group, trunks)
        })
        .collect()
}

/// `accumulate_group` per group plus `finish_step` against the oracle and
/// against `train_step`, over two steps (Adam's moments from the first feed
/// the second), for every advantage estimator.
fn assert_streamed_step_is_the_batch_step(config: ModelConfig) {
    for algorithm in RlAlgorithm::all() {
        let rl = RlConfig {
            algorithm,
            max_update_tokens: MAX_UPDATE_TOKENS,
            ..RlConfig::default()
        };
        let mut streamed_target = TinyLm::new(config, 21);
        let (mut batch_target, mut oracle_target) =
            (streamed_target.clone(), streamed_target.clone());
        let mut streamed = PolicyTrainer::new(streamed_target.reference_copy(), rl);
        let mut batch = PolicyTrainer::new(streamed_target.reference_copy(), rl);
        let mut oracle = OracleTrainer::new(streamed_target.reference_copy(), rl);
        let mut rng = StdRng::seed_from_u64(25);
        for step in 0..2 {
            let captured = rollout_groups(&streamed_target, &mut rng);
            let groups: Vec<RolloutGroup> = captured.iter().map(|(g, _)| g.clone()).collect();
            for (group, trunks) in captured {
                streamed.accumulate_group(&streamed_target, &group, trunks);
            }
            let metrics = streamed.finish_step(&mut streamed_target);
            let label = format!("{} step {step}", algorithm.name());
            assert!(metrics.update_tokens > 0, "{label}");
            assert_same_metrics(
                &metrics,
                &batch.train_step(&mut batch_target, &groups),
                &format!("{label} vs train_step"),
            );
            assert_same_metrics(
                &metrics,
                &oracle.train_step(&mut oracle_target, &groups),
                &format!("{label} vs oracle"),
            );
            assert_same_tail(&streamed_target, &batch_target, &label);
            assert_same_tail(&streamed_target, &oracle_target, &label);
            assert_eq!(streamed.steps(), step + 1);
        }
    }
}

#[test]
fn streamed_step_matches_train_step_and_the_oracle_on_micro() {
    assert_streamed_step_is_the_batch_step(ModelConfig::micro());
}

#[test]
fn streamed_step_matches_train_step_and_the_oracle_at_the_context_limit() {
    // Prompt plus update cap overruns the positional table: the clamp decides
    // how many captured rows a response contributes.
    assert_streamed_step_is_the_batch_step(ModelConfig {
        max_seq_len: 40,
        ..ModelConfig::micro()
    });
}

/// One group with a 4-token response, its trunks as `trunks` edits them.
fn accumulate_with(trunks: impl FnOnce(&mut Vec<Mat>)) {
    let target = TinyLm::new(ModelConfig::micro(), 26);
    let mut trainer = PolicyTrainer::new(target.reference_copy(), RlConfig::default());
    let group = RolloutGroup {
        prompt: vec![1, 2, 3],
        responses: vec![vec![4, 5, 6, 7]],
        rewards: vec![1.0],
    };
    let mut captured = vec![target.trunk_forward(&[1, 2, 3, 4, 5, 6]).slice_rows(3, 6)];
    trunks(&mut captured);
    trainer.accumulate_group(&target, &group, captured);
}

#[test]
fn accumulate_group_takes_a_well_formed_trunk() {
    accumulate_with(|_| {});
}

#[test]
#[should_panic(expected = "a captured trunk holds one row per response token but the last")]
fn trunk_with_the_wrong_row_count_is_rejected() {
    // Four rows: one too many (a trunk over the whole response).
    accumulate_with(|trunks| trunks[0] = Mat::zeros(4, ModelConfig::micro().hidden));
}

#[test]
#[should_panic(expected = "one captured trunk per response")]
fn trunks_not_matching_the_responses_are_rejected() {
    accumulate_with(|trunks| trunks.push(trunks[0].clone()));
}

#[test]
#[should_panic(expected = "target and reference trunks differ")]
fn streamed_step_rejects_a_target_with_a_different_trunk() {
    let mut target = TinyLm::new(ModelConfig::micro(), 27);
    let mut trainer = PolicyTrainer::new(target.reference_copy(), RlConfig::default());
    target.layers[0].wq.as_mut_slice()[0] += 0.5;
    let group = RolloutGroup {
        prompt: vec![1, 2, 3],
        responses: vec![vec![4, 5, 6]],
        rewards: vec![1.0],
    };
    let trunk = target.trunk_forward(&[1, 2, 3, 4, 5]).slice_rows(3, 5);
    trainer.accumulate_group(&target, &group, vec![trunk]);
}

/// The KL block the step had before it read log-probabilities off the logits:
/// both distributions materialised, then a logarithm per entry.
#[test]
fn kl_from_logits_matches_kl_from_probabilities() {
    let full = SamplingParams {
        temperature: 1.0,
        top_k: None,
    };
    let mut rng = StdRng::seed_from_u64(24);
    let (mut probs, mut grad) = (Vec::new(), Vec::new());
    let mut check = |logits: &[f32], ref_logits: &[f32]| {
        let (p, q) = (
            probs_from_logits(logits, full),
            probs_from_logits(ref_logits, full),
        );
        let kl = kl_grad_from_logits_into(logits, ref_logits, &mut probs, &mut grad);
        assert_eq!(bits(&probs), bits(&p), "policy distribution");
        let old_kl = kl_divergence(&p, &q);
        assert!(
            (kl - old_kl).abs() <= 1e-6 + 1e-5 * old_kl,
            "KL {kl} vs {old_kl}"
        );
        for (v, (g, old)) in grad.iter().zip(kl_grad_wrt_logits(&p, &q)).enumerate() {
            assert!((g - old).abs() <= 1e-6, "gradient entry {v}: {g} vs {old}");
        }
        kl
    };
    for case in 0..1_000 {
        let vocab = [32, 96][case % 2];
        let scale = [0.1f32, 0.5, 1.0, 2.0, 4.0, 8.0][case / 2 % 6];
        let logits: Vec<f32> = (0..vocab).map(|_| rng.gen_range(-scale..scale)).collect();
        // An unrelated reference, or one near the policy (an RL step's regime).
        let drift = 0.05 * scale;
        let ref_logits: Vec<f32> = logits
            .iter()
            .map(|z| match case % 3 {
                0 => rng.gen_range(-scale..scale),
                _ => z + rng.gen_range(-drift..drift),
            })
            .collect();
        check(&logits, &ref_logits);
    }
    // A policy probability that underflows to an exact zero (and stays out of
    // both the KL and the gradient), next to ordinary entries.
    let mut logits = vec![0.0f32; 32];
    logits[0] = 12.0;
    logits[5] = -95.0;
    let mut ref_logits = logits.clone();
    ref_logits[0] = 11.0;
    ref_logits[5] = -90.0;
    let kl = check(&logits, &ref_logits);
    assert!(kl > 0.0);
    assert_eq!((probs[5], grad[5]), (0.0, 0.0));
}

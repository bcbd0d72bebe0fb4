//! Reference model for the SD tuner behind `SdStepEvaluator`.
//!
//! `OracleEvaluator` is the evaluator, the adaptive SD manager and the BEG-MAB
//! selector as they stood before the tuner decided by arm index: every arm keeps
//! a `VecDeque` reward window, a step is recorded by strategy (a linear search),
//! the batch's bucket is found by a threshold scan on every decision, and accept
//! lengths are remembered in a list searched by (drafter, strategy). Step costs
//! come from the unsplit `decode_step_time` / `speculative_step_time` calls.
//!
//! The test steps it beside the evaluator over seeded random (load, batch,
//! context) sequences, for strategy sets with one and with several arms per
//! bucket, every window and exploration rate below, both drafters and every SD
//! mode, and holds every `SdStep` bit and the final RNG state equal. No product
//! configuration has a bucket with two arms, so this is what holds the
//! multi-arm path to the selector it replaced.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::ModelSpec;
use tlt_rollout::{
    expected_accept_len, AdaptiveSdManager, BegMabConfig, BegMabSelector, DrafterChoice,
    SdManagerConfig, SdMode, SdStep, SdStepEvaluator, SdStepModel, SdStrategy, SimRolloutConfig,
};

const CARRY_BITS: u32 = 52;

/// The selector with per-arm `VecDeque` windows, recorded by strategy.
struct OracleSelector {
    config: BegMabConfig,
    groups: Vec<Vec<usize>>,
    thresholds: Vec<usize>,
    rewards: Vec<VecDeque<f64>>,
    strategies: Vec<SdStrategy>,
}

impl OracleSelector {
    fn new(strategies: &[SdStrategy], thresholds: &[usize], config: BegMabConfig) -> Self {
        let mut verify_values: Vec<usize> = strategies.iter().map(|s| s.tokens_to_verify).collect();
        verify_values.sort_unstable_by(|a, b| b.cmp(a));
        verify_values.dedup();
        let groups = verify_values
            .iter()
            .map(|&v| {
                strategies
                    .iter()
                    .filter(|s| s.tokens_to_verify == v)
                    .map(|s| strategies.iter().position(|a| a == s).unwrap())
                    .collect()
            })
            .collect();
        OracleSelector {
            config,
            groups,
            thresholds: thresholds[..verify_values.len()].to_vec(),
            rewards: vec![VecDeque::new(); strategies.len()],
            strategies: strategies.to_vec(),
        }
    }

    fn group_for_batch(&self, batch_size: usize) -> usize {
        let mut chosen = 0;
        for (i, &t) in self.thresholds.iter().enumerate() {
            if batch_size >= t {
                chosen = i;
            }
        }
        chosen
    }

    fn record(&mut self, strategy: &SdStrategy, elapsed_s: f64, accepted: f64, batch: usize) {
        let Some(idx) = self.strategies.iter().position(|s| s == strategy) else {
            return;
        };
        let accept_len = accepted / batch.max(1) as f64 + 1.0;
        let reward = if elapsed_s > 0.0 {
            accept_len * batch as f64 / elapsed_s
        } else {
            0.0
        };
        let window = &mut self.rewards[idx];
        while window.len() >= self.config.window {
            window.pop_front();
        }
        window.push_back(reward);
    }

    fn median_reward(&self, arm: usize) -> Option<f64> {
        let mut sorted: Vec<f64> = self.rewards[arm].iter().copied().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(sorted[sorted.len() / 2])
    }

    fn select(&mut self, batch_size: usize, rng: &mut StdRng) -> SdStrategy {
        let candidates = &self.groups[self.group_for_batch(batch_size)];
        if candidates.len() == 1 {
            return self.strategies[candidates[0]];
        }
        if rng.gen::<f64>() < self.config.epsilon {
            return self.strategies[candidates[rng.gen_range(0..candidates.len())]];
        }
        let mut best: Option<(usize, f64)> = None;
        for &arm in candidates {
            match self.median_reward(arm) {
                None => return self.strategies[arm],
                Some(r) => {
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((arm, r));
                    }
                }
            }
        }
        self.strategies[best.unwrap().0]
    }
}

enum OraclePolicy {
    Disabled,
    Static(SdStrategy, usize),
    Adaptive(SdManagerConfig, OracleSelector),
}

/// The evaluator with the manager's decision inline and a linear accept memo.
struct OracleEvaluator {
    policy: OraclePolicy,
    rng: StdRng,
    memo: Vec<(DrafterChoice, SdStrategy, f64)>,
    carry: u64,
}

impl OracleEvaluator {
    fn decide(&mut self, load: usize) -> Option<(DrafterChoice, SdStrategy)> {
        match &mut self.policy {
            OraclePolicy::Disabled => None,
            OraclePolicy::Static(strategy, threshold) => {
                (load <= *threshold).then_some((DrafterChoice::Learned, *strategy))
            }
            OraclePolicy::Adaptive(config, selector) => {
                if load == 0 || load > config.elastic_threshold {
                    return None;
                }
                let drafter = if config.learned_drafter_available {
                    DrafterChoice::Learned
                } else if config.model_free_fallback {
                    DrafterChoice::ModelFree
                } else {
                    return None;
                };
                Some((drafter, selector.select(load, &mut self.rng)))
            }
        }
    }

    fn step(
        &mut self,
        model: &SdStepModel<'_>,
        load: usize,
        batch: usize,
        context: usize,
        time_scale: f64,
    ) -> SdStep {
        let Some((drafter, strategy)) = self.decide(load) else {
            return SdStep {
                time_s: model.cost.decode_step_time(batch, context) * time_scale,
                tokens: 1,
                accept_len: 1.0,
                speculative: false,
            };
        };
        let accept = match self
            .memo
            .iter()
            .find(|(d, s, _)| *d == drafter && *s == strategy)
        {
            Some(&(.., accept)) => accept,
            None => {
                let profile = match drafter {
                    DrafterChoice::Learned => model.acceptance,
                    DrafterChoice::ModelFree => model.model_free_acceptance,
                };
                let accept = expected_accept_len(profile, &strategy);
                self.memo.push((drafter, strategy, accept));
                accept
            }
        };
        let time_s = model.cost.speculative_step_time(
            model.drafter,
            batch,
            strategy.draft_depth,
            strategy.tokens_to_verify,
            context,
        ) * time_scale;
        if let OraclePolicy::Adaptive(_, selector) = &mut self.policy {
            selector.record(&strategy, time_s, (accept - 1.0) * batch as f64, batch);
        }
        let total = self.carry + (accept * (1u64 << CARRY_BITS) as f64) as u64;
        self.carry = total & ((1 << CARRY_BITS) - 1);
        SdStep {
            time_s,
            tokens: (total >> CARRY_BITS) as usize,
            accept_len: accept,
            speculative: true,
        }
    }
}

fn strategy_set(arms: &[(usize, usize, usize)]) -> Vec<SdStrategy> {
    arms.iter()
        .map(|&(draft_depth, top_k, tokens_to_verify)| SdStrategy {
            draft_depth,
            top_k,
            tokens_to_verify,
        })
        .collect()
}

/// The two sets of the selector's unit tests (two arms in the 64-token bucket;
/// three in it and two in the 32-token one) and the default set (one arm per
/// bucket), each with its thresholds.
fn strategy_sets() -> Vec<(Vec<SdStrategy>, Vec<usize>)> {
    vec![
        (
            strategy_set(&[(10, 8, 64), (10, 4, 64), (8, 8, 32), (4, 8, 16)]),
            vec![1, 8, 24],
        ),
        (
            strategy_set(&[
                (10, 8, 64),
                (10, 4, 64),
                (8, 6, 64),
                (8, 8, 32),
                (6, 8, 32),
                (4, 8, 16),
            ]),
            vec![1, 8, 24],
        ),
        (SdStrategy::default_set(), vec![1, 8, 24, 48]),
    ]
}

/// Steps both evaluators through 10k seeded random steps and compares them.
fn assert_lockstep(mut evaluator: SdStepEvaluator, mut oracle: OracleEvaluator, seed: u64) {
    let config = SimRolloutConfig::vanilla(LlmCostModel::new(
        ModelSpec::qwen2_5_7b(),
        GpuType::H100.spec(),
        1,
    ));
    let model = config.step_model();
    let mut inputs = StdRng::seed_from_u64(seed);
    let (mut load, mut batch, mut context) = (1, 1, 512);
    for i in 0..10_000 {
        // Runs of an unchanged batch (the evaluator's cost cache) between jumps
        // across the elastic threshold and every bucket.
        if inputs.gen::<f64>() < 0.3 {
            load = inputs.gen_range(0..48usize);
            batch = inputs.gen_range(1..=load.max(1));
        }
        context = (context + inputs.gen_range(0..64usize)) % 8192 + 1;
        let time_scale = if inputs.gen::<f64>() < 0.1 { 1.75 } else { 1.0 };
        let got = evaluator.step(&model, load, batch, context, time_scale);
        let want = oracle.step(&model, load, batch, context, time_scale);
        assert_eq!(
            (got.time_s.to_bits(), got.tokens, got.accept_len.to_bits()),
            (
                want.time_s.to_bits(),
                want.tokens,
                want.accept_len.to_bits()
            ),
            "step {i}: load {load}, batch {batch}, context {context}"
        );
        assert_eq!(got.speculative, want.speculative, "step {i}");
    }
    // Equal generator state: the evaluator drew exactly the oracle's numbers,
    // so both would draw the same next one.
    let next = oracle.rng.clone().next_u64();
    let state = format!("rng: {:?}", oracle.rng);
    assert!(
        format!("{evaluator:?}").contains(&state),
        "evaluator RNG differs from {state} (next output {next})"
    );
}

#[test]
fn adaptive_evaluator_matches_the_vecdeque_tuner_step_for_step() {
    for (set_index, (strategies, thresholds)) in strategy_sets().into_iter().enumerate() {
        for window in [1, 3, 16] {
            for epsilon in [0.0, 0.1, 1.0] {
                for learned in [true, false] {
                    let mab = BegMabConfig { epsilon, window };
                    let config = SdManagerConfig {
                        learned_drafter_available: learned,
                        mab,
                        ..SdManagerConfig::default()
                    };
                    let seed = (set_index * 100 + window * 10) as u64 + u64::from(learned);
                    let evaluator = if strategies == SdStrategy::default_set() {
                        SdStepEvaluator::new(&SdMode::Adaptive { config }, seed)
                    } else {
                        let selector = BegMabSelector::new(&strategies, &thresholds, mab);
                        let manager = AdaptiveSdManager::with_selector(config, selector);
                        SdStepEvaluator::with_manager(manager, seed)
                    };
                    let oracle = OracleEvaluator {
                        policy: OraclePolicy::Adaptive(
                            config,
                            OracleSelector::new(&strategies, &thresholds, mab),
                        ),
                        rng: StdRng::seed_from_u64(seed),
                        memo: Vec::new(),
                        carry: 0,
                    };
                    assert_lockstep(evaluator, oracle, seed ^ 0x5eed);
                }
            }
        }
    }
}

#[test]
fn static_and_disabled_evaluators_match_the_oracle() {
    let strategy = SdStrategy::default();
    let modes = [
        (SdMode::Disabled, OraclePolicy::Disabled),
        (
            SdMode::Static {
                strategy,
                threshold: 20,
            },
            OraclePolicy::Static(strategy, 20),
        ),
    ];
    for (seed, (mode, policy)) in modes.into_iter().enumerate() {
        let oracle = OracleEvaluator {
            policy,
            rng: StdRng::seed_from_u64(seed as u64),
            memo: Vec::new(),
            carry: 0,
        };
        assert_lockstep(SdStepEvaluator::new(&mode, seed as u64), oracle, 77);
    }
}

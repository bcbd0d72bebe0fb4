//! Bucketed-Epsilon-Greedy (BEG) multi-armed-bandit strategy selector (Algorithm 1).
//!
//! Each "arm" is an [`SdStrategy`] (draft depth, top-K, tokens-to-verify); the reward
//! of pulling an arm is the generation efficiency it achieved,
//! `accepted_tokens * batch_size / elapsed_time`. Strategies are grouped by their
//! `tokens_to_verify` and mapped onto batch-size buckets, so only strategies suitable
//! for the current batch size compete; within a bucket the selector is epsilon-greedy
//! over the *median* reward of a sliding window, which keeps it robust to the
//! non-stationary dynamics of RL training.

use crate::spec::SdStrategy;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the BEG-MAB selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BegMabConfig {
    /// Exploration probability.
    pub epsilon: f64,
    /// Sliding-window size for reward/accept-length history.
    pub window: usize,
}

impl Default for BegMabConfig {
    fn default() -> Self {
        BegMabConfig {
            epsilon: 0.1,
            window: 16,
        }
    }
}

/// Observation recorded after executing one speculative generation step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepObservation {
    /// Wall-clock (or simulated) duration of the step in seconds.
    pub elapsed_s: f64,
    /// Sum of accepted tokens across the batch (excluding bonus tokens).
    pub accepted_tokens: f64,
    /// Number of sequences in the batch.
    pub batch_size: usize,
}

#[derive(Debug, Clone, Default)]
struct ArmHistory {
    rewards: VecDeque<f64>,
    accept_lens: VecDeque<f64>,
}

/// Appends `value`, keeping the newest `window` entries. The oldest entry leaves
/// before the new one arrives, so a full window never outgrows its buffer.
fn push_windowed(history: &mut VecDeque<f64>, value: f64, window: usize) {
    if window == 0 {
        return;
    }
    while history.len() >= window {
        history.pop_front();
    }
    history.push_back(value);
}

/// The BEG-MAB selector.
#[derive(Debug, Clone)]
pub struct BegMabSelector {
    config: BegMabConfig,
    /// Strategy groups ordered by descending `tokens_to_verify`, as arm indices
    /// into `all_strategies` resolved once at construction; group `i` serves batch
    /// sizes in `[thresholds[i], thresholds[i+1])`.
    groups: Vec<Vec<usize>>,
    /// Ascending batch-size thresholds, one per group (`t_1 = 1`).
    thresholds: Vec<usize>,
    histories: Vec<ArmHistory>,
    all_strategies: Vec<SdStrategy>,
    /// Reused sort buffer of `median_reward`.
    scratch: Vec<f64>,
    selections: u64,
    explorations: u64,
}

impl BegMabSelector {
    /// Builds a selector from a strategy set and batch thresholds.
    ///
    /// Strategies are grouped by `tokens_to_verify` (descending) and the `i`-th group
    /// is matched to batch sizes of at least `thresholds[i]` and below
    /// `thresholds[i+1]`.
    ///
    /// # Panics
    ///
    /// Panics if strategies or thresholds are empty, or counts do not line up.
    pub fn new(strategies: &[SdStrategy], thresholds: &[usize], config: BegMabConfig) -> Self {
        assert!(!strategies.is_empty(), "need at least one strategy");
        assert!(!thresholds.is_empty(), "need at least one threshold");
        // Group by tokens_to_verify, descending.
        let mut verify_values: Vec<usize> = strategies.iter().map(|s| s.tokens_to_verify).collect();
        verify_values.sort_unstable_by(|a, b| b.cmp(a));
        verify_values.dedup();
        assert!(
            verify_values.len() <= thresholds.len(),
            "need a batch threshold per tokens_to_verify group"
        );
        // A strategy listed twice is one arm: both entries resolve to the first.
        let arm_of = |s: &SdStrategy| strategies.iter().position(|a| a == s);
        let groups: Vec<Vec<usize>> = verify_values
            .iter()
            .map(|&v| {
                strategies
                    .iter()
                    .filter(|s| s.tokens_to_verify == v)
                    .map(|s| arm_of(s).expect("strategy is in its own set"))
                    .collect()
            })
            .collect();
        let all_strategies: Vec<SdStrategy> = strategies.to_vec();
        let histories = vec![ArmHistory::default(); all_strategies.len()];
        BegMabSelector {
            config,
            groups,
            thresholds: thresholds[..verify_values.len()].to_vec(),
            histories,
            all_strategies,
            scratch: Vec::new(),
            selections: 0,
            explorations: 0,
        }
    }

    /// Builds a selector with the default strategy set and thresholds `1/8/24/48`.
    pub fn with_default_strategies(config: BegMabConfig) -> Self {
        BegMabSelector::new(&SdStrategy::default_set(), &[1, 8, 24, 48], config)
    }

    fn arm_index(&self, strategy: &SdStrategy) -> Option<usize> {
        self.all_strategies.iter().position(|s| s == strategy)
    }

    fn group_for_batch(&self, batch_size: usize) -> usize {
        // The last group whose threshold is <= batch_size; group 0 has the deepest
        // verification and the smallest threshold.
        let mut chosen = 0;
        for (i, &t) in self.thresholds.iter().enumerate() {
            if batch_size >= t {
                chosen = i;
            }
        }
        chosen
    }

    /// Candidate strategies for a batch size.
    pub fn candidates(&self, batch_size: usize) -> impl Iterator<Item = SdStrategy> + '_ {
        self.groups[self.group_for_batch(batch_size)]
            .iter()
            .map(|&arm| self.all_strategies[arm])
    }

    /// Records the outcome of running `strategy` on a batch.
    pub fn record(&mut self, strategy: &SdStrategy, obs: StepObservation) {
        let Some(idx) = self.arm_index(strategy) else {
            return;
        };
        let accept_len = obs.accepted_tokens / obs.batch_size.max(1) as f64 + 1.0;
        let reward = if obs.elapsed_s > 0.0 {
            accept_len * obs.batch_size as f64 / obs.elapsed_s
        } else {
            0.0
        };
        let history = &mut self.histories[idx];
        push_windowed(&mut history.rewards, reward, self.config.window);
        push_windowed(&mut history.accept_lens, accept_len, self.config.window);
    }

    /// Median of an arm's reward window, sorted in `scratch`.
    fn median_reward(history: &ArmHistory, scratch: &mut Vec<f64>) -> Option<f64> {
        if history.rewards.is_empty() {
            return None;
        }
        scratch.clear();
        scratch.extend(history.rewards.iter().copied());
        scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(scratch[scratch.len() / 2])
    }

    /// Selects a strategy for the given batch size (Algorithm 1, SelectStrategy).
    pub fn select<R: Rng>(&mut self, batch_size: usize, rng: &mut R) -> SdStrategy {
        self.selections += 1;
        let group = self.group_for_batch(batch_size);
        let arm = self.select_arm(group, rng);
        self.all_strategies[arm]
    }

    fn select_arm<R: Rng>(&mut self, group: usize, rng: &mut R) -> usize {
        let candidates = &self.groups[group];
        if candidates.len() == 1 {
            return candidates[0];
        }
        let explore = rng.gen::<f64>() < self.config.epsilon;
        if explore {
            self.explorations += 1;
            return candidates[rng.gen_range(0..candidates.len())];
        }
        // Exploit: maximise median reward; unexplored arms are tried first.
        let mut best: Option<(usize, f64)> = None;
        for &arm in candidates {
            match Self::median_reward(&self.histories[arm], &mut self.scratch) {
                None => return arm, // untried arm: force exploration of it
                Some(r) => {
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((arm, r));
                    }
                }
            }
        }
        best.expect("non-empty candidate set").0
    }

    /// Mean accept length observed for a strategy over its sliding window.
    pub fn mean_accept_length(&self, strategy: &SdStrategy) -> Option<f64> {
        let idx = self.arm_index(strategy)?;
        let h = &self.histories[idx];
        if h.accept_lens.is_empty() {
            None
        } else {
            Some(h.accept_lens.iter().sum::<f64>() / h.accept_lens.len() as f64)
        }
    }

    /// Number of selections and explorations performed.
    pub fn stats(&self) -> (u64, u64) {
        (self.selections, self.explorations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strategies() -> Vec<SdStrategy> {
        vec![
            SdStrategy {
                draft_depth: 10,
                top_k: 8,
                tokens_to_verify: 64,
            },
            SdStrategy {
                draft_depth: 10,
                top_k: 4,
                tokens_to_verify: 64,
            },
            SdStrategy {
                draft_depth: 8,
                top_k: 8,
                tokens_to_verify: 32,
            },
            SdStrategy {
                draft_depth: 4,
                top_k: 8,
                tokens_to_verify: 16,
            },
        ]
    }

    #[test]
    fn batch_size_maps_to_verify_groups() {
        let selector = BegMabSelector::new(&strategies(), &[1, 8, 24], BegMabConfig::default());
        // Small batches -> deepest verification group (64 tokens).
        assert!(selector.candidates(1).all(|s| s.tokens_to_verify == 64));
        assert!(selector.candidates(10).all(|s| s.tokens_to_verify == 32));
        assert!(selector.candidates(100).all(|s| s.tokens_to_verify == 16));
    }

    #[test]
    fn single_candidate_groups_are_deterministic() {
        let mut selector = BegMabSelector::new(&strategies(), &[1, 8, 24], BegMabConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let s = selector.select(30, &mut rng);
            assert_eq!(s.tokens_to_verify, 16);
        }
    }

    #[test]
    fn exploitation_prefers_higher_reward_arm() {
        let mut selector = BegMabSelector::new(
            &strategies(),
            &[1, 8, 24],
            BegMabConfig {
                epsilon: 0.0,
                window: 8,
            },
        );
        let good = strategies()[0];
        let bad = strategies()[1];
        for _ in 0..8 {
            selector.record(
                &good,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 6.0,
                    batch_size: 1,
                },
            );
            selector.record(
                &bad,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 2.0,
                    batch_size: 1,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(selector.select(1, &mut rng), good);
        }
        assert!(
            selector.mean_accept_length(&good).unwrap()
                > selector.mean_accept_length(&bad).unwrap()
        );
    }

    #[test]
    fn unexplored_arms_get_tried_before_exploitation() {
        let mut selector = BegMabSelector::new(
            &strategies(),
            &[1, 8, 24],
            BegMabConfig {
                epsilon: 0.0,
                window: 8,
            },
        );
        let good = strategies()[0];
        for _ in 0..4 {
            selector.record(
                &good,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 6.0,
                    batch_size: 1,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(2);
        // The other bs=1 arm has never been tried; the selector must pick it at least
        // once before settling.
        let first = selector.select(1, &mut rng);
        assert_eq!(first, strategies()[1]);
    }

    #[test]
    fn exploration_rate_roughly_matches_epsilon() {
        let mut selector = BegMabSelector::new(
            &strategies(),
            &[1, 8, 24],
            BegMabConfig {
                epsilon: 0.3,
                window: 8,
            },
        );
        // Seed both arms so exploitation is possible.
        for s in &strategies()[..2] {
            selector.record(
                s,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 4.0,
                    batch_size: 1,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            selector.select(1, &mut rng);
        }
        let (selections, explorations) = selector.stats();
        let rate = explorations as f64 / selections as f64;
        assert!((0.2..0.4).contains(&rate), "exploration rate {rate}");
    }

    #[test]
    fn sliding_window_adapts_to_nonstationary_rewards() {
        // An arm that was good early but degrades (e.g. drafter gone stale) should be
        // dethroned once the window rolls over.
        let mut selector = BegMabSelector::new(
            &strategies(),
            &[1, 8, 24],
            BegMabConfig {
                epsilon: 0.0,
                window: 4,
            },
        );
        let a = strategies()[0];
        let b = strategies()[1];
        for _ in 0..4 {
            selector.record(
                &a,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 8.0,
                    batch_size: 1,
                },
            );
            selector.record(
                &b,
                StepObservation {
                    elapsed_s: 0.01,
                    accepted_tokens: 4.0,
                    batch_size: 1,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(selector.select(1, &mut rng), a);
        // Arm A degrades badly; after `window` new observations it should lose.
        for _ in 0..4 {
            selector.record(
                &a,
                StepObservation {
                    elapsed_s: 0.05,
                    accepted_tokens: 1.0,
                    batch_size: 1,
                },
            );
        }
        assert_eq!(selector.select(1, &mut rng), b);
    }

    /// A strategy set whose two smallest-batch groups each hold several
    /// candidates, so exploit-phase median comparisons decide the arm.
    fn multi_candidate_strategies() -> Vec<SdStrategy> {
        [
            (10, 8, 64),
            (10, 4, 64),
            (8, 6, 64),
            (8, 8, 32),
            (6, 8, 32),
            (4, 8, 16),
        ]
        .into_iter()
        .map(|(draft_depth, top_k, tokens_to_verify)| SdStrategy {
            draft_depth,
            top_k,
            tokens_to_verify,
        })
        .collect()
    }

    /// Drives select/record for 210 steps over cycling batch sizes with
    /// arm- and step-dependent rewards; returns the chosen arm per step.
    fn selection_sequence(seed: u64) -> (String, (u64, u64)) {
        let arms = multi_candidate_strategies();
        let mut selector = BegMabSelector::new(
            &arms,
            &[1, 8, 24],
            BegMabConfig {
                epsilon: 0.25,
                window: 5,
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sequence = String::new();
        for i in 0..210usize {
            let batch = [1, 3, 9, 12, 30, 5, 20][i % 7];
            let chosen = selector.select(batch, &mut rng);
            let arm = arms.iter().position(|s| *s == chosen).expect("known arm");
            sequence.push(char::from(b'0' + arm as u8));
            selector.record(
                &chosen,
                StepObservation {
                    elapsed_s: 0.01 + 0.001 * ((i * 7 + arm) % 5) as f64,
                    accepted_tokens: (chosen.draft_depth / 2 + (i + arm) % 3) as f64 * batch as f64,
                    batch_size: batch,
                },
            );
        }
        (sequence, selector.stats())
    }

    /// The sequences below were produced by the selector as it stood before arm
    /// indices were resolved at construction and the median moved to a reused
    /// buffer: same arm at every step means same medians and same RNG draws.
    #[test]
    fn multi_candidate_selection_sequence_is_pinned() {
        assert_eq!(
            selection_sequence(11),
            (
                "013451321435141144513113351311435131144513113351311335131133513113351411335131133513113351311345131133513113351311335131133513113451322335130134513113351311335131134514124351311345232133523123352421335131134513".to_string(),
                (210, 31)
            )
        );
        assert_eq!(
            selection_sequence(12),
            (
                "014352422435242143513113351311335232233523223351311445131133513013351311435131143513113351311335141233513113351310345131133513113351311335030233524223352302435232234523203452322345040144514013451311345132133513".to_string(),
                (210, 46)
            )
        );
    }

    #[test]
    fn default_strategy_selector_builds() {
        let selector = BegMabSelector::with_default_strategies(BegMabConfig::default());
        assert!(selector.candidates(1).next().is_some());
        assert!(selector.candidates(64).next().is_some());
    }
}

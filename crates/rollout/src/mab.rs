//! Bucketed-Epsilon-Greedy (BEG) multi-armed-bandit strategy selector (Algorithm 1).
//!
//! Each "arm" is an [`SdStrategy`] (draft depth, top-K, tokens-to-verify); the reward
//! of pulling an arm is the generation efficiency it achieved,
//! `accepted_tokens * batch_size / elapsed_time`. Strategies are grouped by their
//! `tokens_to_verify` and mapped onto batch-size buckets, so only strategies suitable
//! for the current batch size compete; within a bucket the selector is epsilon-greedy
//! over the *median* reward of a sliding window, which keeps it robust to the
//! non-stationary dynamics of RL training.
//!
//! Arms are indices resolved at construction. A decision reads the batch's bucket
//! (one compare if the batch size is the last one's); only a bucket of two or more
//! arms adds the epsilon draw and reads its arms' reward windows, sized at
//! construction and kept for no other arm. The default set has one arm per
//! bucket: the bandit chooses, and keeps windows, only for a caller's multi-arm set.

use crate::spec::SdStrategy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the BEG-MAB selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BegMabConfig {
    /// Exploration probability, in `[0, 1]`.
    pub epsilon: f64,
    /// Sliding-window size of the reward history (at least 1).
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

/// Median of an arm's reward window, sorted in `scratch`.
fn median_reward(rewards: &[f64], scratch: &mut Vec<f64>) -> Option<f64> {
    if rewards.is_empty() {
        return None;
    }
    scratch.clear();
    scratch.extend_from_slice(rewards);
    scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(scratch[scratch.len() / 2])
}

/// The BEG-MAB selector.
#[derive(Debug, Clone)]
pub struct BegMabSelector {
    config: BegMabConfig,
    /// The distinct strategies in first-occurrence order: arm `i` is `arms[i]`.
    pub(crate) arms: Vec<SdStrategy>,
    /// Arms per bucket, buckets ordered by descending `tokens_to_verify`; bucket
    /// `i` serves batch sizes in `[thresholds[i], thresholds[i+1])`.
    buckets: Vec<Vec<usize>>,
    /// Strictly ascending batch-size thresholds, one per bucket (`t_1 = 1`).
    thresholds: Vec<usize>,
    /// The newest rewards of each arm, oldest first, in a `Vec` allocated to the
    /// window's length; `None` for an arm alone in its bucket.
    windows: Vec<Option<Vec<f64>>>,
    /// Sort buffer of the median, allocated to the window's length.
    scratch: Vec<f64>,
    /// The last batch size selected for, its bucket and the bucket's arm if it
    /// has only one.
    last_batch: (usize, usize, Option<usize>),
    selections: u64,
    explorations: u64,
}

impl BegMabSelector {
    /// Builds a selector from a strategy set and batch thresholds.
    ///
    /// Strategies are grouped by `tokens_to_verify` (descending) and the `i`-th group
    /// is matched to batch sizes of at least `thresholds[i]` and below
    /// `thresholds[i+1]`. A strategy listed twice is one arm.
    ///
    /// # Panics
    ///
    /// Panics if strategies or thresholds are empty, counts do not line up, the
    /// thresholds are not strictly ascending (a bucket would be unreachable),
    /// `epsilon` is not in `[0, 1]`, or `window` is 0 (a window that never fills
    /// leaves every bucket on its first arm).
    pub fn new(strategies: &[SdStrategy], thresholds: &[usize], config: BegMabConfig) -> Self {
        assert!(!strategies.is_empty(), "need at least one strategy");
        assert!(!thresholds.is_empty(), "need at least one threshold");
        let ascending = thresholds.is_sorted_by(|a, b| a < b);
        assert!(ascending, "thresholds {thresholds:?} must rise strictly");
        let BegMabConfig { epsilon, window } = config;
        let probability = (0.0..=1.0).contains(&epsilon);
        assert!(probability, "epsilon {epsilon} not in [0, 1]");
        assert!(window > 0, "reward window {window} never fills");
        let mut arms: Vec<SdStrategy> = Vec::with_capacity(strategies.len());
        for strategy in strategies {
            if !arms.contains(strategy) {
                arms.push(*strategy);
            }
        }
        // Bucket by tokens_to_verify, descending.
        let mut verify_values: Vec<usize> = arms.iter().map(|s| s.tokens_to_verify).collect();
        verify_values.sort_unstable_by(|a, b| b.cmp(a));
        verify_values.dedup();
        assert!(
            verify_values.len() <= thresholds.len(),
            "need a batch threshold per tokens_to_verify group"
        );
        let buckets: Vec<Vec<usize>> = verify_values
            .iter()
            .map(|&v| {
                (0..arms.len())
                    .filter(|&arm| arms[arm].tokens_to_verify == v)
                    .collect()
            })
            .collect();
        let mut windows = vec![None; arms.len()];
        for &arm in buckets.iter().filter(|bucket| bucket.len() > 1).flatten() {
            windows[arm] = Some(Vec::with_capacity(window));
        }
        let shared = windows.iter().any(Option::is_some);
        let mut selector = BegMabSelector {
            config,
            arms,
            buckets,
            thresholds: thresholds[..verify_values.len()].to_vec(),
            windows,
            scratch: Vec::with_capacity(if shared { window } else { 0 }),
            last_batch: (0, 0, None),
            selections: 0,
            explorations: 0,
        };
        selector.last_batch = selector.resolve(0);
        selector
    }

    /// Builds a selector with the default strategy set and thresholds `1/8/24/48`.
    pub fn with_default_strategies(config: BegMabConfig) -> Self {
        BegMabSelector::new(&SdStrategy::default_set(), &[1, 8, 24, 48], config)
    }

    /// The last bucket whose threshold is at most `batch_size` (bucket 0 below
    /// every threshold); bucket 0 has the deepest verification.
    fn bucket_of(&self, batch_size: usize) -> usize {
        let reached = self.thresholds.partition_point(|&t| t <= batch_size);
        reached.saturating_sub(1)
    }

    /// `batch_size`, its bucket and the bucket's arm if it has only one.
    fn resolve(&self, batch_size: usize) -> (usize, usize, Option<usize>) {
        let bucket = self.bucket_of(batch_size);
        let lone = (self.buckets[bucket].len() == 1).then(|| self.buckets[bucket][0]);
        (batch_size, bucket, lone)
    }

    /// Candidate strategies for a batch size.
    pub fn candidates(&self, batch_size: usize) -> impl Iterator<Item = SdStrategy> + '_ {
        self.buckets[self.bucket_of(batch_size)]
            .iter()
            .map(|&arm| self.arms[arm])
    }

    /// Records the outcome of running `strategy` on a batch.
    pub fn record(&mut self, strategy: &SdStrategy, obs: StepObservation) {
        if let Some(arm) = self.arms.iter().position(|s| s == strategy) {
            self.record_arm(arm, obs);
        }
    }

    /// Records the outcome of running arm `arm`; a no-op for an arm alone in its
    /// bucket, whose rewards no decision reads.
    #[inline]
    pub(crate) fn record_arm(&mut self, arm: usize, obs: StepObservation) {
        let Some(rewards) = &mut self.windows[arm] else {
            return;
        };
        let accept_len = obs.accepted_tokens / obs.batch_size.max(1) as f64 + 1.0;
        let reward = if obs.elapsed_s > 0.0 {
            accept_len * obs.batch_size as f64 / obs.elapsed_s
        } else {
            0.0
        };
        if rewards.len() == self.config.window {
            rewards.remove(0);
        }
        rewards.push(reward);
    }

    /// Selects a strategy for the given batch size (Algorithm 1, SelectStrategy).
    pub fn select<R: Rng>(&mut self, batch_size: usize, rng: &mut R) -> SdStrategy {
        let (arm, _) = self.select_arm(batch_size, rng);
        self.arms[arm]
    }

    /// [`select`](Self::select) by arm index, and whether the arm shares its
    /// bucket (only then is its outcome worth a [`record_arm`](Self::record_arm)).
    #[inline]
    pub(crate) fn select_arm<R: Rng>(&mut self, batch_size: usize, rng: &mut R) -> (usize, bool) {
        self.selections += 1;
        if self.last_batch.0 != batch_size {
            self.last_batch = self.resolve(batch_size);
        }
        if let (_, _, Some(arm)) = self.last_batch {
            return (arm, false);
        }
        let candidates = &self.buckets[self.last_batch.1];
        if rng.gen::<f64>() < self.config.epsilon {
            self.explorations += 1;
            return (candidates[rng.gen_range(0..candidates.len())], true);
        }
        // Exploit: maximise median reward; unexplored arms are tried first.
        let mut best: Option<(usize, f64)> = None;
        for &arm in candidates {
            let rewards = self.windows[arm].as_deref().expect("a shared bucket's arm");
            match median_reward(rewards, &mut self.scratch) {
                None => return (arm, true), // untried arm: force exploration of it
                Some(r) => {
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((arm, r));
                    }
                }
            }
        }
        (best.expect("non-empty candidate set").0, true)
    }

    /// Counts `times` more selections for the last batch size, as that many
    /// [`select_arm`](Self::select_arm) calls would when its bucket has one arm.
    pub(crate) fn repeat_lone_selection(&mut self, times: u64) {
        debug_assert!(
            self.last_batch.2.is_some(),
            "a shared bucket draws per step"
        );
        self.selections += times;
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
        let median = |arm: usize| {
            let rewards = selector.windows[arm]
                .as_deref()
                .expect("arm shares its bucket");
            median_reward(rewards, &mut Vec::new()).expect("arm was recorded")
        };
        assert!(median(0) > median(1));
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

    /// A strategy listed twice is one arm: a bucket of `[A, A]` is a lone arm
    /// that draws nothing, and `[A, A, B]` explores `A` half the time.
    #[test]
    fn a_strategy_listed_twice_is_one_arm() {
        let [a, b] = [strategies()[0], strategies()[1]];
        let explore = BegMabConfig {
            epsilon: 1.0,
            window: 8,
        };
        let mut selector = BegMabSelector::new(&[a, a], &[1], explore);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(selector.select(1, &mut rng), a);
        }
        assert_eq!(rng, StdRng::seed_from_u64(5), "a lone arm draws nothing");
        let mut selector = BegMabSelector::new(&[a, a, b], &[1], explore);
        let picks = (0..30_000)
            .filter(|_| selector.select(1, &mut rng) == a)
            .count();
        let share = picks as f64 / 30_000.0;
        assert!(
            (share - 0.5).abs() <= 0.02,
            "explored A {share} of the time"
        );
    }

    /// Configurations that would silently disable a bucket or the bandit are
    /// rejected at construction, naming the value.
    #[test]
    fn configurations_that_disable_a_bucket_or_the_bandit_are_rejected() {
        let set = strategies();
        let config = |epsilon, window| BegMabConfig { epsilon, window };
        let rejected: [(&[usize], BegMabConfig, &str); 7] = [
            (&[1, 24, 8], config(0.1, 16), "[1, 24, 8]"),
            (&[1, 8, 8], config(0.1, 16), "[1, 8, 8]"),
            (&[1, 8, 24], config(f64::NAN, 16), "NaN"),
            (&[1, 8, 24], config(-0.1, 16), "-0.1"),
            (&[1, 8, 24], config(1.5, 16), "1.5"),
            (&[1, 8, 24], config(f64::INFINITY, 16), "inf"),
            (&[1, 8, 24], config(0.1, 0), "window 0"),
        ];
        for (thresholds, config, named) in rejected {
            let panic = std::panic::catch_unwind(|| BegMabSelector::new(&set, thresholds, config))
                .expect_err(named);
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains(named), "{message:?} does not name {named}");
        }
        for epsilon in [0.0, 1.0] {
            BegMabSelector::new(&set, &[1, 8, 24], config(epsilon, 1));
        }
    }

    #[test]
    fn default_strategy_selector_builds() {
        let selector = BegMabSelector::with_default_strategies(BegMabConfig::default());
        assert!(selector.candidates(1).next().is_some());
        assert!(selector.candidates(64).next().is_some());
    }
}

//! Token sampling utilities shared by the target model, the drafter, and the
//! speculative-verification logic.
//!
//! Speculative decoding requires the *full* next-token distribution of both the
//! draft and target model (not just a sampled token), so the central abstraction is
//! [`probs_from_logits`], which converts a logits row into a temperature-adjusted
//! probability vector; the sampling functions then operate on that vector.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How tokens are drawn from a next-token distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingParams {
    /// Softmax temperature; `0.0` means greedy (argmax) decoding.
    pub temperature: f32,
    /// Optional top-k truncation applied before normalisation (`None` = full vocab).
    pub top_k: Option<usize>,
}

impl SamplingParams {
    /// Greedy decoding.
    pub fn greedy() -> Self {
        SamplingParams {
            temperature: 0.0,
            top_k: None,
        }
    }

    /// Standard RL rollout sampling as used in the paper (temperature 0.9).
    pub fn rollout() -> Self {
        SamplingParams {
            temperature: 0.9,
            top_k: None,
        }
    }

    /// Whether this configuration is greedy.
    pub fn is_greedy(&self) -> bool {
        self.temperature <= f32::EPSILON
    }
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams::rollout()
    }
}

/// Converts a logits row into a probability vector under the given sampling params.
///
/// For greedy decoding the result is a one-hot vector on the argmax (this is the
/// limit distribution as temperature goes to zero, and makes the speculative
/// accept/reject rule uniform across greedy and sampled decoding).
pub fn probs_from_logits(logits: &[f32], params: SamplingParams) -> Vec<f32> {
    let mut probs = Vec::new();
    probs_from_logits_into(logits, params, &mut probs);
    probs
}

/// [`probs_from_logits`] into a caller-owned buffer, reusing its capacity.
///
/// Generation loops hold one buffer per sequence and call this every step, so
/// steady-state sampling performs no heap allocation.
pub fn probs_from_logits_into(logits: &[f32], params: SamplingParams, out: &mut Vec<f32>) {
    assert!(!logits.is_empty(), "empty logits row");
    out.clear();
    if params.is_greedy() {
        out.resize(logits.len(), 0.0);
        out[argmax(logits)] = 1.0;
        return;
    }
    out.extend(logits.iter().map(|v| v / params.temperature));
    if let Some(k) = params.top_k {
        apply_top_k(out, k);
    }
    crate::ops::softmax_in_place(out);
}

/// Index of the maximum element (first occurrence wins ties).
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// Returns the indices of the `k` largest values, in descending value order.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

fn apply_top_k(scaled_logits: &mut [f32], k: usize) {
    if k == 0 || k >= scaled_logits.len() {
        return;
    }
    let keep = top_k_indices(scaled_logits, k);
    let mut mask = vec![false; scaled_logits.len()];
    for i in keep {
        mask[i] = true;
    }
    for (i, v) in scaled_logits.iter_mut().enumerate() {
        if !mask[i] {
            *v = f32::NEG_INFINITY;
        }
    }
}

/// Samples an index from a (not necessarily normalised) probability vector.
///
/// # Panics
///
/// Panics if the vector is empty or sums to zero.
pub fn sample_from_probs<R: Rng>(probs: &[f32], rng: &mut R) -> usize {
    assert!(!probs.is_empty(), "empty probability vector");
    let total: f32 = probs.iter().sum();
    assert!(total > 0.0, "probability vector sums to zero");
    pick(probs.iter().copied(), total, rng)
}

/// Draws a threshold in `0.0..total` and returns the index of the weight it
/// falls in, walking the positive weights in order.
fn pick<R: Rng>(
    mut weights: impl DoubleEndedIterator<Item = f32> + ExactSizeIterator + Clone,
    total: f32,
    rng: &mut R,
) -> usize {
    let mut threshold = rng.gen_range(0.0..total);
    for (i, p) in weights.clone().enumerate() {
        if p <= 0.0 {
            continue;
        }
        if threshold < p {
            return i;
        }
        threshold -= p;
    }
    // Floating-point round-off: fall back to the last positive entry.
    weights
        .rposition(|p| p > 0.0)
        .expect("at least one positive probability")
}

/// Samples a token from a logits row under `params`.
pub fn sample_token<R: Rng>(logits: &[f32], params: SamplingParams, rng: &mut R) -> u32 {
    if params.is_greedy() {
        return argmax(logits) as u32;
    }
    let probs = probs_from_logits(logits, params);
    sample_from_probs(&probs, rng) as u32
}

/// Normalises the positive part of `residual` and samples from it.
///
/// This implements the *residual distribution* sampling step of lossless
/// speculative decoding: when a drafted token is rejected, the replacement token is
/// drawn from `max(0, p_target - p_draft)` renormalised.
pub fn sample_from_residual<R: Rng>(target: &[f32], draft: &[f32], rng: &mut R) -> usize {
    assert_eq!(target.len(), draft.len(), "distribution length mismatch");
    // Summed in one pass and picked from in a second: no residual vector.
    let residual = target.iter().zip(draft).map(|(&t, &d)| (t - d).max(0.0));
    let total: f32 = residual.clone().sum();
    if total <= f32::EPSILON {
        // Distributions are (numerically) identical; fall back to the target.
        return sample_from_probs(target, rng);
    }
    pick(residual, total, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_params_give_one_hot() {
        let logits = [0.1, 3.0, -1.0];
        let probs = probs_from_logits(&logits, SamplingParams::greedy());
        assert_eq!(probs, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn temperature_sharpens_distribution() {
        let logits = [1.0, 2.0, 3.0];
        let cold = probs_from_logits(
            &logits,
            SamplingParams {
                temperature: 0.25,
                top_k: None,
            },
        );
        let warm = probs_from_logits(
            &logits,
            SamplingParams {
                temperature: 2.0,
                top_k: None,
            },
        );
        assert!(cold[2] > warm[2]);
        assert!((cold.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((warm.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn top_k_masks_low_probability_tokens() {
        let logits = [5.0, 4.0, 1.0, 0.0];
        let probs = probs_from_logits(
            &logits,
            SamplingParams {
                temperature: 1.0,
                top_k: Some(2),
            },
        );
        assert_eq!(probs[2], 0.0);
        assert_eq!(probs[3], 0.0);
        assert!(probs[0] > probs[1]);
    }

    #[test]
    fn sample_from_probs_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        let probs = [0.0f32, 0.9, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[sample_from_probs(&probs, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2]);
        let freq1 = counts[1] as f64 / 2000.0;
        assert!((freq1 - 0.9).abs() < 0.05);
    }

    #[test]
    fn sample_token_greedy_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = [0.5, -0.2, 4.0, 1.0];
        for _ in 0..10 {
            assert_eq!(sample_token(&logits, SamplingParams::greedy(), &mut rng), 2);
        }
    }

    #[test]
    fn residual_sampling_never_picks_overrepresented_tokens() {
        let mut rng = StdRng::seed_from_u64(2);
        // Draft puts too much mass on index 0; residual must exclude it.
        let target = [0.3f32, 0.4, 0.3];
        let draft = [0.8f32, 0.1, 0.1];
        for _ in 0..500 {
            let idx = sample_from_residual(&target, &draft, &mut rng);
            assert_ne!(idx, 0);
        }
    }

    #[test]
    fn residual_sampling_identical_distributions_falls_back_to_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = [0.25f32, 0.25, 0.5];
        let idx = sample_from_residual(&target, &target, &mut rng);
        assert!(idx < 3);
    }

    #[test]
    fn residual_sampling_matches_the_collect_then_sample_form() {
        use rand::Rng;
        // The sampler this one replaced, verbatim: materialise the residual,
        // then sample from it.
        fn collected<R: Rng>(target: &[f32], draft: &[f32], rng: &mut R) -> usize {
            let residual: Vec<f32> = target
                .iter()
                .zip(draft.iter())
                .map(|(&t, &d)| (t - d).max(0.0))
                .collect();
            let total: f32 = residual.iter().sum();
            if total <= f32::EPSILON {
                return sample_from_probs(target, rng);
            }
            sample_from_probs(&residual, rng)
        }
        let mut inputs = StdRng::seed_from_u64(4);
        let (mut rng, mut old_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let params = SamplingParams::rollout();
        for case in 0..10_000 {
            let n = inputs.gen_range(1..100);
            let mut dist = || {
                let logits: Vec<f32> = (0..n).map(|_| inputs.gen_range(-4.0..4.0)).collect();
                probs_from_logits(&logits, params)
            };
            let target = dist();
            // One pair in eight is identical: the fall-back to the target.
            let draft = if case % 8 == 0 {
                target.clone()
            } else {
                dist()
            };
            assert_eq!(
                sample_from_residual(&target, &draft, &mut rng),
                collected(&target, &draft, &mut old_rng),
                "case {case}"
            );
        }
        // Index for index on one seed, and the streams are still aligned.
        assert_eq!(rng.gen::<u64>(), old_rng.gen::<u64>());
    }

    #[test]
    fn top_k_indices_sorted_descending() {
        let values = [0.1f32, 5.0, 3.0, 4.0];
        assert_eq!(top_k_indices(&values, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&values, 10).len(), 4);
    }
}

//! KL-divergence utilities for the RL inference stage.
//!
//! GRPO regularises the policy toward a frozen reference model with a KL penalty.
//! The paper follows the common practice (Schulman's approximations) of estimating
//! the per-token KL from the log-probabilities of the *sampled* token only, because
//! materialising full distributions for every position of a 32K-token rollout is
//! too expensive. Both the exact full-distribution KL and the sampled estimators
//! are provided here so tests can check the estimators against the exact value.

use crate::mathx;
use crate::ops::exp_shifted_in_place;
use serde::{Deserialize, Serialize};

/// Which per-token KL estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KlEstimator {
    /// `k1 = logp - logq` (unbiased, high variance, can be negative).
    K1,
    /// `k2 = 0.5 * (logp - logq)^2` (biased, low variance, non-negative).
    K2,
    /// `k3 = (r - 1) - log r` with `r = q/p` (unbiased, non-negative in expectation).
    K3,
}

/// Exact KL divergence `KL(p || q)` between two discrete distributions.
///
/// # Panics
///
/// Panics if the distributions have different lengths.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let mut kl = 0.0f64;
    for (&pi, &qi) in p.iter().zip(q.iter()) {
        if pi <= 0.0 {
            continue;
        }
        let qi = qi.max(1e-12);
        kl += pi as f64 * ((pi as f64).ln() - (qi as f64).ln());
    }
    kl.max(0.0)
}

/// Per-token KL estimate from the log-probabilities of the *sampled* token under
/// the policy (`logp`) and the reference model (`logq`).
pub fn sampled_kl(logp: f32, logq: f32, estimator: KlEstimator) -> f32 {
    match estimator {
        KlEstimator::K1 => logp - logq,
        KlEstimator::K2 => 0.5 * (logp - logq).powi(2),
        KlEstimator::K3 => {
            let log_ratio = logq - logp;
            (mathx::exp(log_ratio) - 1.0) - log_ratio
        }
    }
}

/// Mean per-token KL estimate over a response, given aligned per-token
/// log-probabilities under the policy and the reference model.
///
/// Returns `0.0` for empty inputs.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn mean_sampled_kl(policy_logps: &[f32], ref_logps: &[f32], estimator: KlEstimator) -> f32 {
    assert_eq!(
        policy_logps.len(),
        ref_logps.len(),
        "log-probability length mismatch"
    );
    if policy_logps.is_empty() {
        return 0.0;
    }
    let sum: f32 = policy_logps
        .iter()
        .zip(ref_logps.iter())
        .map(|(&lp, &lq)| sampled_kl(lp, lq, estimator))
        .sum();
    sum / policy_logps.len() as f32
}

/// Gradient of the exact `KL(p || q)` with respect to the policy logits, where
/// `p = softmax(logits)` and `q` is fixed.
///
/// `dKL/dz_j = p_j * (log p_j - log q_j - KL)`.
pub fn kl_grad_wrt_logits(p: &[f32], q: &[f32]) -> Vec<f32> {
    let mut grad = Vec::new();
    kl_grad_wrt_logits_into(p, q, &mut grad);
    grad
}

/// [`kl_grad_wrt_logits`] into a caller-owned buffer, reusing its capacity.
/// Returns the exact `KL(p || q)` the gradient is built from.
pub fn kl_grad_wrt_logits_into(p: &[f32], q: &[f32], out: &mut Vec<f32>) -> f64 {
    let kl = kl_divergence(p, q);
    let kl32 = kl as f32;
    out.clear();
    out.extend(p.iter().zip(q.iter()).map(|(&pi, &qi)| {
        if pi <= 0.0 {
            0.0
        } else {
            pi * ((pi.max(1e-12)).ln() - (qi.max(1e-12)).ln() - kl32)
        }
    }));
    kl
}

/// Exact `KL(p || q)` and its gradient with respect to the policy logits, for
/// `p = softmax(logits)` and the fixed `q = softmax(ref_logits)`, with the
/// log-probabilities read off the logits (`z - max - ln(sum)`: one logarithm
/// per distribution, none per entry) instead of recovered from `p` and `q`.
///
/// Leaves `p` in `probs` (the bits of [`crate::probs_from_logits_into`] at
/// temperature 1) and `p_j * (log p_j - log q_j - KL)` in `grad`; returns the
/// KL, accumulated in `f64` and clamped at zero. An entry whose probability
/// underflows to zero contributes nothing to either.
///
/// # Panics
///
/// Panics if the rows differ in length.
pub fn kl_grad_from_logits_into(
    logits: &[f32],
    ref_logits: &[f32],
    probs: &mut Vec<f32>,
    grad: &mut Vec<f32>,
) -> f64 {
    assert_eq!(logits.len(), ref_logits.len(), "logits length mismatch");
    grad.clear();
    grad.extend_from_slice(ref_logits);
    let (ref_max, ref_sum) = exp_shifted_in_place(grad);
    probs.clear();
    probs.extend_from_slice(logits);
    let (max, sum) = exp_shifted_in_place(probs);
    let (ln_sum, ref_ln_sum) = (sum.ln(), ref_sum.ln());
    for p in probs.iter_mut() {
        *p /= sum;
    }
    // log p_j - log q_j, over the reference's exponentials (only their sum was needed).
    grad.clear();
    grad.extend(
        logits
            .iter()
            .zip(ref_logits)
            .map(|(&z, &ref_z)| ((z - max) - ln_sum) - ((ref_z - ref_max) - ref_ln_sum)),
    );
    let mut kl = 0.0f64;
    for (&p, &log_ratio) in probs.iter().zip(grad.iter()) {
        kl += p as f64 * log_ratio as f64;
    }
    let kl = kl.max(0.0);
    let kl32 = kl as f32;
    for (g, &p) in grad.iter_mut().zip(probs.iter()) {
        *g = p * (*g - kl32);
    }
    kl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_zero_for_identical_distributions() {
        let p = [0.2f32, 0.3, 0.5];
        assert!(kl_divergence(&p, &p) < 1e-9);
    }

    #[test]
    fn kl_positive_for_different_distributions() {
        let p = [0.9f32, 0.05, 0.05];
        let q = [0.1f32, 0.45, 0.45];
        assert!(kl_divergence(&p, &q) > 0.5);
    }

    #[test]
    fn kl_asymmetric() {
        let p = [0.9f32, 0.1];
        let q = [0.5f32, 0.5];
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-3);
    }

    #[test]
    fn k2_and_k3_are_non_negative() {
        for (lp, lq) in [(-1.0f32, -2.0f32), (-2.0, -1.0), (-0.5, -0.5)] {
            assert!(sampled_kl(lp, lq, KlEstimator::K2) >= 0.0);
            assert!(sampled_kl(lp, lq, KlEstimator::K3) >= -1e-6);
        }
    }

    #[test]
    fn k1_estimator_unbiased_in_expectation() {
        // E_{x~p}[log p(x) - log q(x)] == KL(p || q); check by exhaustive expectation.
        let p = [0.6f32, 0.3, 0.1];
        let q = [0.2f32, 0.5, 0.3];
        let exact = kl_divergence(&p, &q);
        let estimate: f64 = p
            .iter()
            .zip(q.iter())
            .map(|(&pi, &qi)| pi as f64 * sampled_kl(pi.ln(), qi.ln(), KlEstimator::K1) as f64)
            .sum();
        assert!((exact - estimate).abs() < 1e-6);
    }

    #[test]
    fn k3_estimator_unbiased_in_expectation() {
        let p = [0.5f32, 0.25, 0.25];
        let q = [0.25f32, 0.5, 0.25];
        let exact = kl_divergence(&p, &q);
        let estimate: f64 = p
            .iter()
            .zip(q.iter())
            .map(|(&pi, &qi)| pi as f64 * sampled_kl(pi.ln(), qi.ln(), KlEstimator::K3) as f64)
            .sum();
        assert!((exact - estimate).abs() < 1e-4);
    }

    #[test]
    fn mean_sampled_kl_empty_is_zero() {
        assert_eq!(mean_sampled_kl(&[], &[], KlEstimator::K3), 0.0);
    }

    #[test]
    fn kl_grad_points_away_from_reference() {
        // Gradient should be ~zero when p == q.
        let p = [0.25f32, 0.25, 0.25, 0.25];
        let grad = kl_grad_wrt_logits(&p, &p);
        for g in grad {
            assert!(g.abs() < 1e-6);
        }
        // And non-zero when they differ.
        let q = [0.7f32, 0.1, 0.1, 0.1];
        let grad = kl_grad_wrt_logits(&p, &q);
        assert!(grad.iter().any(|g| g.abs() > 1e-4));
    }
}

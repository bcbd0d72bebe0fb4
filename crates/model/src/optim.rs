//! Adam optimizer used for drafter training and the target policy update.
//!
//! The paper trains both the target model and the drafter with Adam (mixed-precision
//! BF16 in the original system); here a plain `f32` Adam with bias correction and
//! optional decoupled weight decay is sufficient.

use crate::layers::{DecoderLayer, DecoderLayerGrads};
use crate::tensor::Mat;
use serde::{Deserialize, Serialize};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient (AdamW style).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// Configuration used for drafter spot-training.
    pub fn drafter() -> Self {
        AdamConfig {
            lr: 3e-3,
            ..AdamConfig::default()
        }
    }
}

/// First/second moment state for one flat parameter buffer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct MomentPair {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl MomentPair {
    fn sized(len: usize) -> Self {
        MomentPair {
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }
}

/// Adam optimizer over named flat parameter buffers.
///
/// Buffers are registered lazily on first update; repeated updates with the same
/// name reuse the accumulated moments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    moments: std::collections::BTreeMap<String, MomentPair>,
}

impl Adam {
    /// Creates an optimizer with the given hyperparameters.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            step: 0,
            moments: std::collections::BTreeMap::new(),
        }
    }

    /// Current hyperparameters.
    pub fn config(&self) -> AdamConfig {
        self.config
    }

    /// Advances the global step counter. Call once per optimisation step, before
    /// updating any parameter buffers belonging to that step.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies an Adam update to a flat buffer identified by `name`.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` have different lengths, or if a buffer with the
    /// same name was previously registered with a different length.
    pub fn update_slice(&mut self, name: &str, param: &mut [f32], grad: &[f32]) {
        assert_eq!(
            param.len(),
            grad.len(),
            "parameter/gradient length mismatch"
        );
        assert!(self.step > 0, "call begin_step before update");
        let entry = self
            .moments
            .entry(name.to_string())
            .or_insert_with(|| MomentPair::sized(param.len()));
        assert_eq!(
            entry.m.len(),
            param.len(),
            "buffer '{name}' changed length between updates"
        );
        let cfg = &self.config;
        let t = self.step as f32;
        let bias1 = 1.0 - cfg.beta1.powf(t);
        let bias2 = 1.0 - cfg.beta2.powf(t);
        // Iterator-lockstep form so the compiler elides bounds checks and
        // vectorises the whole update (including sqrt/div); element math and
        // order are unchanged.
        for ((p, &g), (m, v)) in param
            .iter_mut()
            .zip(grad.iter())
            .zip(entry.m.iter_mut().zip(entry.v.iter_mut()))
        {
            *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
            *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            let update = m_hat / (v_hat.sqrt() + cfg.eps) + cfg.weight_decay * *p;
            *p -= cfg.lr * update;
        }
    }

    /// Applies an Adam update to a matrix parameter.
    pub fn update_mat(&mut self, name: &str, param: &mut Mat, grad: &Mat) {
        assert_eq!(
            param.shape(),
            grad.shape(),
            "matrix shape mismatch for {name}"
        );
        self.update_slice(name, param.as_mut_slice(), grad.as_slice());
    }

    /// Applies an Adam update to every parameter of a decoder layer under the name
    /// prefix `prefix` (e.g. `"drafter.layer"`).
    pub fn update_decoder_layer(
        &mut self,
        prefix: &str,
        layer: &mut DecoderLayer,
        grads: &DecoderLayerGrads,
    ) {
        self.update_slice(
            &format!("{prefix}.attn_norm"),
            &mut layer.attn_norm,
            &grads.attn_norm,
        );
        self.update_mat(&format!("{prefix}.wq"), &mut layer.wq, &grads.wq);
        self.update_mat(&format!("{prefix}.wk"), &mut layer.wk, &grads.wk);
        self.update_mat(&format!("{prefix}.wv"), &mut layer.wv, &grads.wv);
        self.update_mat(&format!("{prefix}.wo"), &mut layer.wo, &grads.wo);
        self.update_slice(
            &format!("{prefix}.mlp_norm"),
            &mut layer.mlp_norm,
            &grads.mlp_norm,
        );
        self.update_mat(
            &format!("{prefix}.w_gate"),
            &mut layer.w_gate,
            &grads.w_gate,
        );
        self.update_mat(&format!("{prefix}.w_up"), &mut layer.w_up, &grads.w_up);
        self.update_mat(
            &format!("{prefix}.w_down"),
            &mut layer.w_down,
            &grads.w_down,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_minimises_quadratic() {
        // Minimise f(x) = sum (x_i - target_i)^2.
        let target = [1.0f32, -2.0, 0.5, 3.0];
        let mut x = [0.0f32; 4];
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        });
        for _ in 0..400 {
            let grad: Vec<f32> = x
                .iter()
                .zip(&target)
                .map(|(xi, ti)| 2.0 * (xi - ti))
                .collect();
            adam.begin_step();
            adam.update_slice("x", &mut x, &grad);
        }
        for (xi, ti) in x.iter().zip(&target) {
            assert!((xi - ti).abs() < 0.05, "Adam failed to converge: {x:?}");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut x = [10.0f32; 3];
        let zero_grad = [0.0f32; 3];
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..AdamConfig::default()
        });
        for _ in 0..50 {
            adam.begin_step();
            adam.update_slice("x", &mut x, &zero_grad);
        }
        for v in x {
            assert!(v.abs() < 10.0);
        }
    }

    #[test]
    fn update_decoder_layer_touches_all_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DecoderLayer::random(
            LayerConfig {
                hidden: 8,
                num_heads: 2,
                ffn_hidden: 8,
            },
            &mut rng,
        );
        let before = layer.clone();
        let (_, cache) = layer.forward_train(&Mat::zeros(2, 8));
        let (_, mut grads) = layer.backward(&cache, &Mat::zeros(2, 8));
        // Non-zero gradient everywhere.
        for v in grads.attn_norm.iter_mut() {
            *v = 1.0;
        }
        for v in grads.mlp_norm.iter_mut() {
            *v = 1.0;
        }
        for m in [
            &mut grads.wq,
            &mut grads.wk,
            &mut grads.wv,
            &mut grads.wo,
            &mut grads.w_gate,
            &mut grads.w_up,
            &mut grads.w_down,
        ] {
            for v in m.as_mut_slice() {
                *v = 1.0;
            }
        }
        let mut adam = Adam::new(AdamConfig::drafter());
        adam.begin_step();
        adam.update_decoder_layer("layer", &mut layer, &grads);
        assert_ne!(before.wq, layer.wq);
        assert_ne!(before.w_down, layer.w_down);
        assert_ne!(before.attn_norm, layer.attn_norm);
    }

    #[test]
    #[should_panic(expected = "call begin_step")]
    fn update_without_begin_step_panics() {
        let mut adam = Adam::new(AdamConfig::default());
        let mut x = [0.0f32];
        adam.update_slice("x", &mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::new(AdamConfig::default());
        adam.begin_step();
        let mut x = [0.0f32; 2];
        adam.update_slice("x", &mut x, &[1.0]);
    }
}

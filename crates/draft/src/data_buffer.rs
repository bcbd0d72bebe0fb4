//! Online DataBuffer for drafter spot-training (§4.2).
//!
//! The buffer caches the target-model hidden states and tokens produced during the
//! RL inference/rollout stages so drafter training never has to re-prefill them. It
//! persists across RL steps and supports the paper's *one-step-offset* sampling: the
//! longest sequences of the previous step are retained and mixed into the current
//! step's (partial, short-biased) data to cover the long-tail length range.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tlt_model::{Mat, TinyLm, TokenId};

use crate::model::FeatureSource;

/// One cached rollout response ready for drafter training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSample {
    /// RL step the response was generated in.
    pub rl_step: u64,
    /// Request identifier within the step.
    pub request_id: u64,
    /// Full token sequence (prompt + response).
    pub tokens: Vec<TokenId>,
    /// Target hidden features per position (width depends on the feature source).
    pub features: Mat,
    /// Response length in tokens (excludes the prompt).
    pub response_len: usize,
}

impl TrainingSample {
    /// Builds a sample by running the target's prefill over `tokens` and extracting
    /// the hidden states required by `source`. In the real system these hidden states
    /// are free by-products of the RL inference stage; here they are recomputed.
    pub fn from_rollout(
        target: &TinyLm,
        source: FeatureSource,
        tokens: &[TokenId],
        response_len: usize,
        rl_step: u64,
        request_id: u64,
    ) -> Self {
        assert!(tokens.len() >= 3, "sample too short for drafter training");
        let features = match source {
            FeatureSource::LastLayer => target.prefill(tokens, false).0.last_hidden,
            FeatureSource::MultiLayer => {
                let (out, _) = target.prefill(tokens, true);
                source.extract(&out.layer_outputs.expect("hidden collection requested"))
            }
        };
        TrainingSample {
            rl_step,
            request_id,
            tokens: tokens.to_vec(),
            features,
            response_len,
        }
    }

    /// Number of supervised positions this sample contributes
    /// (position `t` predicts token `t + 2`).
    pub fn num_training_positions(&self) -> usize {
        self.tokens.len().saturating_sub(2)
    }

    /// Approximate host-memory footprint of the cached sample in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tokens.len() * std::mem::size_of::<TokenId>()
            + self.features.len() * std::mem::size_of::<f32>()
    }
}

/// Configuration of the [`DataBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataBufferConfig {
    /// Host-memory budget for cached samples, in bytes.
    pub capacity_bytes: usize,
    /// Fraction of each training batch drawn from the previous step's long sequences
    /// (the one-step-offset mechanism). `0.0` disables the offset sampling.
    pub offset_fraction: f64,
    /// How many of the longest previous-step samples to retain across steps.
    pub retained_long_samples: usize,
}

impl Default for DataBufferConfig {
    fn default() -> Self {
        DataBufferConfig {
            capacity_bytes: 256 * 1024 * 1024,
            offset_fraction: 0.3,
            retained_long_samples: 64,
        }
    }
}

/// The online DataBuffer.
#[derive(Debug, Clone)]
pub struct DataBuffer {
    config: DataBufferConfig,
    current: Vec<TrainingSample>,
    previous_long: Vec<TrainingSample>,
    bytes: usize,
    evicted: u64,
}

impl DataBuffer {
    /// Creates an empty buffer.
    pub fn new(config: DataBufferConfig) -> Self {
        DataBuffer {
            config,
            current: Vec::new(),
            previous_long: Vec::new(),
            bytes: 0,
            evicted: 0,
        }
    }

    /// Number of samples currently cached (current step + retained previous).
    pub fn len(&self) -> usize {
        self.current.len() + self.previous_long.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of samples evicted so far due to the capacity limit.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Adds a sample produced during the current RL step, evicting the oldest
    /// current-step samples if the capacity would be exceeded (previous-step long
    /// samples are never evicted by pushes — they are the scarce resource).
    pub fn push(&mut self, sample: TrainingSample) {
        self.bytes += sample.memory_bytes();
        self.current.push(sample);
        while self.bytes > self.config.capacity_bytes && self.current.len() > 1 {
            let removed = self.current.remove(0);
            self.bytes -= removed.memory_bytes();
            self.evicted += 1;
        }
    }

    /// Longest response length currently represented in the buffer.
    pub fn max_response_len(&self) -> usize {
        self.current
            .iter()
            .chain(self.previous_long.iter())
            .map(|s| s.response_len)
            .max()
            .unwrap_or(0)
    }

    /// Advances to the next RL step: the longest `retained_long_samples` of the
    /// current step replace the previous-step retention set and the current set is
    /// cleared (one-step-offset persistence).
    pub fn advance_step(&mut self) {
        let mut all = std::mem::take(&mut self.current);
        all.sort_by_key(|s| std::cmp::Reverse(s.response_len));
        all.truncate(self.config.retained_long_samples);
        self.previous_long = all;
        self.bytes = self
            .previous_long
            .iter()
            .map(TrainingSample::memory_bytes)
            .sum();
    }

    /// Samples a training batch of up to `n` samples: a `offset_fraction` share of
    /// long sequences from the previous step and the remainder from the current
    /// step's partial data.
    pub fn sample_batch<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<&TrainingSample> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        let want_long = ((n as f64) * self.config.offset_fraction).round() as usize;
        let want_long = want_long.min(self.previous_long.len());
        let want_current = (n - want_long).min(self.current.len());

        let mut batch: Vec<&TrainingSample> = Vec::with_capacity(want_long + want_current);
        let mut long_refs: Vec<&TrainingSample> = self.previous_long.iter().collect();
        long_refs.shuffle(rng);
        batch.extend(long_refs.into_iter().take(want_long));
        let mut cur_refs: Vec<&TrainingSample> = self.current.iter().collect();
        cur_refs.shuffle(rng);
        batch.extend(cur_refs.into_iter().take(want_current));
        // Top up from whichever pool has leftovers if the batch is still short.
        if batch.len() < n {
            let have: Vec<*const TrainingSample> = batch.iter().map(|s| *s as *const _).collect();
            for s in self.previous_long.iter().chain(self.current.iter()) {
                if batch.len() >= n {
                    break;
                }
                if !have.contains(&(s as *const _)) {
                    batch.push(s);
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tlt_model::ModelConfig;

    fn sample_with_len(step: u64, id: u64, response_len: usize) -> TrainingSample {
        // Lightweight synthetic sample (no model needed for buffer-management tests).
        TrainingSample {
            rl_step: step,
            request_id: id,
            tokens: vec![1; response_len + 4],
            features: Mat::zeros(response_len + 4, 8),
            response_len,
        }
    }

    #[test]
    fn from_rollout_extracts_features() {
        let target = TinyLm::new(ModelConfig::micro(), 3);
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4, 5, 6];
        let s = TrainingSample::from_rollout(&target, FeatureSource::LastLayer, &tokens, 3, 0, 0);
        assert_eq!(s.features.shape(), (6, target.config.hidden));
        assert_eq!(s.num_training_positions(), 4);
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn push_and_eviction_respect_capacity() {
        let config = DataBufferConfig {
            capacity_bytes: 6000,
            ..DataBufferConfig::default()
        };
        let mut buf = DataBuffer::new(config);
        for i in 0..50 {
            buf.push(sample_with_len(0, i, 20));
        }
        assert!(buf.bytes() <= config.capacity_bytes || buf.len() == 1);
        assert!(buf.evicted() > 0);
    }

    #[test]
    fn advance_step_retains_longest_sequences() {
        let config = DataBufferConfig {
            retained_long_samples: 3,
            ..DataBufferConfig::default()
        };
        let mut buf = DataBuffer::new(config);
        for (i, len) in [10, 500, 20, 900, 30, 700].iter().enumerate() {
            buf.push(sample_with_len(0, i as u64, *len));
        }
        buf.advance_step();
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.max_response_len(), 900);
        // All retained samples are long ones.
        let mut rng = StdRng::seed_from_u64(0);
        for s in buf.sample_batch(3, &mut rng) {
            assert!(s.response_len >= 500);
        }
    }

    #[test]
    fn one_step_offset_mixes_long_previous_sequences() {
        let config = DataBufferConfig {
            offset_fraction: 0.5,
            retained_long_samples: 8,
            ..DataBufferConfig::default()
        };
        let mut buf = DataBuffer::new(config);
        // Previous step had long sequences.
        for i in 0..8 {
            buf.push(sample_with_len(0, i, 1000 + i as usize));
        }
        buf.advance_step();
        // Current step so far only has short, early-finishing sequences.
        for i in 0..8 {
            buf.push(sample_with_len(1, 100 + i, 50));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let batch = buf.sample_batch(8, &mut rng);
        let long_count = batch.iter().filter(|s| s.response_len >= 1000).count();
        let short_count = batch.iter().filter(|s| s.response_len < 100).count();
        assert!(
            long_count >= 3,
            "expected long-tail coverage, got {long_count}"
        );
        assert!(
            short_count >= 3,
            "expected current-step coverage, got {short_count}"
        );
    }

    #[test]
    fn without_offset_only_current_step_is_sampled() {
        let config = DataBufferConfig {
            offset_fraction: 0.0,
            ..DataBufferConfig::default()
        };
        let mut buf = DataBuffer::new(config);
        for i in 0..4 {
            buf.push(sample_with_len(0, i, 2000));
        }
        buf.advance_step();
        for i in 0..4 {
            buf.push(sample_with_len(1, 10 + i, 10));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let batch = buf.sample_batch(4, &mut rng);
        assert!(batch.iter().all(|s| s.rl_step == 1));
    }

    #[test]
    fn empty_buffer_returns_empty_batch() {
        let buf = DataBuffer::new(DataBufferConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(buf.sample_batch(8, &mut rng).is_empty());
        assert!(buf.is_empty());
    }
}

//! Key/value cache used for incremental (autoregressive) decoding.
//!
//! [`LayerKvCache`] holds one decoder layer's rows; [`KvCache`] is one of them
//! per layer of the target model, and the drafter keeps a bare
//! [`LayerKvCache`] for its single layer. A decoder layer reads and appends its
//! own [`LayerKvCache`] (`DecoderLayer::forward_cached_into`). Speculative
//! decoding appends keys/values for drafted tokens during verification and
//! rolls back the entries of rejected tokens with [`KvCache::truncate`].

use crate::tensor::Mat;

/// Per-layer key/value cache holding one row per cached position.
#[derive(Debug, Clone, Default)]
pub struct LayerKvCache {
    hidden: usize,
    keys: Vec<f32>,
    values: Vec<f32>,
    len: usize,
}

impl LayerKvCache {
    /// Creates an empty cache for vectors of dimension `hidden`.
    pub fn new(hidden: usize) -> Self {
        LayerKvCache {
            hidden,
            keys: Vec::new(),
            values: Vec::new(),
            len: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends every row of the given key/value matrices in one copy per buffer
    /// (no per-row re-copy).
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree in row count or are not `hidden` wide.
    pub fn append_rows(&mut self, keys: &Mat, values: &Mat) {
        assert_eq!(keys.rows(), values.rows(), "key/value row mismatch");
        assert_eq!(keys.cols(), self.hidden, "key length mismatch");
        assert_eq!(values.cols(), self.hidden, "value length mismatch");
        self.keys.extend_from_slice(keys.as_slice());
        self.values.extend_from_slice(values.as_slice());
        self.len += keys.rows();
    }

    /// Pre-allocates room for `total_positions` cached positions so steady-state
    /// appends never reallocate.
    pub fn reserve(&mut self, total_positions: usize) {
        let target = total_positions * self.hidden;
        if target > self.keys.len() {
            self.keys.reserve(target - self.keys.len());
        }
        if target > self.values.len() {
            self.values.reserve(target - self.values.len());
        }
    }

    /// Key row at position `idx`.
    #[inline]
    pub fn key(&self, idx: usize) -> &[f32] {
        &self.keys[idx * self.hidden..(idx + 1) * self.hidden]
    }

    /// Value row at position `idx`.
    #[inline]
    pub fn value(&self, idx: usize) -> &[f32] {
        &self.values[idx * self.hidden..(idx + 1) * self.hidden]
    }

    /// Shrinks the cache to `new_len` positions (used to roll back rejected
    /// speculative tokens). A no-op when `new_len >= len`.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.keys.truncate(new_len * self.hidden);
        self.values.truncate(new_len * self.hidden);
        self.len = new_len;
    }
}

/// Full-model KV cache: one [`LayerKvCache`] per decoder layer.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
}

impl KvCache {
    /// Creates a cache with `num_layers` empty per-layer caches.
    pub fn new(num_layers: usize, hidden: usize) -> Self {
        KvCache {
            layers: (0..num_layers).map(|_| LayerKvCache::new(hidden)).collect(),
        }
    }

    /// Sequence length currently cached (taken from the first layer).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }

    /// The per-layer caches, in layer order.
    pub(crate) fn layers_mut(&mut self) -> &mut [LayerKvCache] {
        &mut self.layers
    }

    /// Pre-allocates every layer cache for `total_positions` positions.
    pub fn reserve(&mut self, total_positions: usize) {
        for layer in &mut self.layers {
            layer.reserve(total_positions);
        }
    }

    /// Truncates every layer cache to `new_len` positions.
    pub fn truncate(&mut self, new_len: usize) {
        for layer in &mut self.layers {
            layer.truncate(new_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One key/value row pair of width `w`, each entry `k` / `v`.
    fn row(w: usize, k: f32, v: f32) -> (Mat, Mat) {
        (
            Mat::from_vec(1, w, vec![k; w]),
            Mat::from_vec(1, w, vec![v; w]),
        )
    }

    #[test]
    fn append_and_read_back() {
        let mut cache = LayerKvCache::new(3);
        let keys = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 7.0, 8.0, 9.0]);
        let values = Mat::from_vec(2, 3, vec![4.0, 5.0, 6.0, 1.0, 1.0, 1.0]);
        cache.append_rows(&keys, &values);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key(1), &[7.0, 8.0, 9.0]);
        assert_eq!(cache.value(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn truncate_rolls_back_entries() {
        let mut cache = LayerKvCache::new(2);
        for i in 0..5 {
            let (k, v) = row(2, i as f32, -(i as f32));
            cache.append_rows(&k, &v);
        }
        cache.truncate(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key(1), &[1.0, 1.0]);
        // truncating to a larger size is a no-op
        cache.truncate(10);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn full_cache_tracks_all_layers() {
        let mut cache = KvCache::new(4, 2);
        let (key, value) = row(2, 1.0, 3.0);
        for layer in cache.layers_mut() {
            layer.append_rows(&key, &value);
        }
        assert_eq!(cache.seq_len(), 1);
        cache.truncate(0);
        assert_eq!(cache.seq_len(), 0);
        assert!(cache.layers_mut().iter().all(LayerKvCache::is_empty));
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn append_wrong_width_panics() {
        let mut cache = LayerKvCache::new(3);
        let (_, value) = row(3, 0.0, 1.0);
        cache.append_rows(&Mat::from_vec(1, 1, vec![1.0]), &value);
    }
}

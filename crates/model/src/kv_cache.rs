//! Key/value cache used for incremental (autoregressive) decoding.
//!
//! Speculative decoding appends keys/values for drafted tokens during verification
//! and must be able to roll back the entries of rejected tokens, so the cache
//! exposes [`LayerKvCache::truncate`] in addition to append.

use crate::tensor::Mat;

/// Backend-neutral KV storage interface the model decodes through.
///
/// Two stores implement it: the target model's [`KvCache`] (one contiguous
/// `Vec` per layer) and a bare [`LayerKvCache`] as a single-layer store (layer
/// index 0), which is how the drafter's own KV runs through the shared layer
/// kernels. Rows are always read in position order (`kv_key(layer, 0..len)`).
pub trait KvStore {
    /// Positions cached across every layer (the sequence length).
    fn kv_seq_len(&self) -> usize;
    /// Positions cached for `layer` (equal to [`KvStore::kv_seq_len`] between
    /// forward passes; lower layers lead during a pass).
    fn kv_len(&self, layer: usize) -> usize;
    /// Appends one key/value row per new position to `layer`.
    fn kv_append(&mut self, layer: usize, keys: &Mat, values: &Mat);
    /// Key row of `layer` at position `idx`.
    fn kv_key(&self, layer: usize, idx: usize) -> &[f32];
    /// Value row of `layer` at position `idx`.
    fn kv_value(&self, layer: usize, idx: usize) -> &[f32];
    /// Rolls every layer back to `new_len` positions.
    fn kv_truncate(&mut self, new_len: usize);
}

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

    /// Hidden dimension of cached vectors.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Appends a key/value row pair.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not have length `hidden`.
    pub fn append(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.hidden, "key length mismatch");
        assert_eq!(value.len(), self.hidden, "value length mismatch");
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
        self.len += 1;
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
    pub fn key(&self, idx: usize) -> &[f32] {
        &self.keys[idx * self.hidden..(idx + 1) * self.hidden]
    }

    /// Value row at position `idx`.
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

    /// Removes all cached entries.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.len = 0;
    }

    /// Approximate memory footprint of the cache in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.keys.len() + self.values.len()) * std::mem::size_of::<f32>()
    }
}

impl KvStore for LayerKvCache {
    fn kv_seq_len(&self) -> usize {
        self.len
    }

    fn kv_len(&self, layer: usize) -> usize {
        debug_assert_eq!(layer, 0, "LayerKvCache is a single-layer store");
        self.len
    }

    fn kv_append(&mut self, layer: usize, keys: &Mat, values: &Mat) {
        debug_assert_eq!(layer, 0, "LayerKvCache is a single-layer store");
        self.append_rows(keys, values);
    }

    #[inline]
    fn kv_key(&self, layer: usize, idx: usize) -> &[f32] {
        debug_assert_eq!(layer, 0, "LayerKvCache is a single-layer store");
        self.key(idx)
    }

    #[inline]
    fn kv_value(&self, layer: usize, idx: usize) -> &[f32] {
        debug_assert_eq!(layer, 0, "LayerKvCache is a single-layer store");
        self.value(idx)
    }

    fn kv_truncate(&mut self, new_len: usize) {
        self.truncate(new_len);
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

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Sequence length currently cached (taken from the first layer).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }

    /// Immutable access to the cache of `layer`.
    pub fn layer(&self, layer: usize) -> &LayerKvCache {
        &self.layers[layer]
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

    /// Clears every layer cache.
    pub fn clear(&mut self) {
        for layer in &mut self.layers {
            layer.clear();
        }
    }

    /// Total memory footprint across layers in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().map(LayerKvCache::memory_bytes).sum()
    }
}

impl KvStore for KvCache {
    fn kv_seq_len(&self) -> usize {
        self.seq_len()
    }

    fn kv_len(&self, layer: usize) -> usize {
        self.layers[layer].len()
    }

    fn kv_append(&mut self, layer: usize, keys: &Mat, values: &Mat) {
        self.layers[layer].append_rows(keys, values);
    }

    #[inline]
    fn kv_key(&self, layer: usize, idx: usize) -> &[f32] {
        self.layers[layer].key(idx)
    }

    #[inline]
    fn kv_value(&self, layer: usize, idx: usize) -> &[f32] {
        self.layers[layer].value(idx)
    }

    fn kv_truncate(&mut self, new_len: usize) {
        self.truncate(new_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut cache = LayerKvCache::new(3);
        cache.append(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        cache.append(&[7.0, 8.0, 9.0], &[1.0, 1.0, 1.0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key(1), &[7.0, 8.0, 9.0]);
        assert_eq!(cache.value(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn truncate_rolls_back_entries() {
        let mut cache = LayerKvCache::new(2);
        for i in 0..5 {
            cache.append(&[i as f32, 0.0], &[0.0, i as f32]);
        }
        cache.truncate(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key(1), &[1.0, 0.0]);
        // truncating to a larger size is a no-op
        cache.truncate(10);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn full_cache_tracks_all_layers() {
        let mut cache = KvCache::new(4, 2);
        let (key, value) = (
            Mat::from_vec(1, 2, vec![1.0, 2.0]),
            Mat::from_vec(1, 2, vec![3.0, 4.0]),
        );
        for layer in 0..4 {
            cache.kv_append(layer, &key, &value);
        }
        assert_eq!(cache.seq_len(), 1);
        assert_eq!(cache.num_layers(), 4);
        cache.truncate(0);
        assert_eq!(cache.seq_len(), 0);
        assert_eq!(cache.memory_bytes(), 0);
    }

    #[test]
    fn memory_bytes_counts_keys_and_values() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[0.0; 4], &[0.0; 4]);
        assert_eq!(cache.memory_bytes(), 2 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn append_wrong_width_panics() {
        let mut cache = LayerKvCache::new(3);
        cache.append(&[1.0], &[1.0, 2.0, 3.0]);
    }
}

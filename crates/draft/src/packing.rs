//! Sequence packing for drafter spot-training (§4.2 "Sequence Packing").
//!
//! Training data consists of variable-length rollout responses. Padding every
//! sequence in a batch to the batch maximum wastes compute on padding tokens; the
//! spot trainer instead packs multiple sequences into fixed-size token budgets
//! (first-fit-decreasing bin packing) and relies on per-sequence attention masks to
//! keep them independent — in this substrate, packed sequences are simply processed
//! back to back, which is equivalent for the single-layer drafter.

use serde::{Deserialize, Serialize};

/// A packing plan: each inner vector lists the indices of the sequences that share
/// one packed buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackingPlan {
    /// Sequence indices per packed buffer.
    pub packs: Vec<Vec<usize>>,
    /// Token budget per packed buffer.
    pub max_tokens: usize,
}

/// Efficiency comparison between padded batching and sequence packing, matching the
/// quantities behind Figure 17(b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackingStats {
    /// Total real tokens across all sequences.
    pub real_tokens: usize,
    /// Tokens processed under padded batching (batch_size x max_len per batch).
    pub padded_tokens: usize,
    /// Tokens processed under packing (packs x max_tokens, capped by real usage).
    pub packed_tokens: usize,
    /// Compute utilisation of padded batching (`real / padded`).
    pub padded_efficiency: f64,
    /// Compute utilisation of packing (`real / packed`).
    pub packed_efficiency: f64,
}

impl PackingStats {
    /// Throughput improvement of packing over padded batching (ratio of effective
    /// samples processed per unit compute).
    pub fn speedup(&self) -> f64 {
        if self.packed_efficiency <= 0.0 || self.padded_efficiency <= 0.0 {
            1.0
        } else {
            self.packed_efficiency / self.padded_efficiency
        }
    }
}

/// Packs sequence lengths into buffers of at most `max_tokens` tokens using
/// first-fit-decreasing. Sequences longer than `max_tokens` get a dedicated pack
/// (they are truncated by the trainer, not here).
///
/// # Panics
///
/// Panics if `max_tokens` is zero.
pub fn pack_sequences(lengths: &[usize], max_tokens: usize) -> PackingPlan {
    assert!(max_tokens > 0, "max_tokens must be positive");
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(lengths[i]));
    let mut packs: Vec<(usize, Vec<usize>)> = Vec::new(); // (used_tokens, members)
    for idx in order {
        let len = lengths[idx].min(max_tokens);
        match packs.iter_mut().find(|(used, _)| used + len <= max_tokens) {
            Some((used, members)) => {
                *used += len;
                members.push(idx);
            }
            None => packs.push((len, vec![idx])),
        }
    }
    PackingPlan {
        packs: packs.into_iter().map(|(_, members)| members).collect(),
        max_tokens,
    }
}

/// Compares padded batching (fixed `batch_size`, padding to each batch's maximum)
/// against packing with a `max_tokens` budget.
pub fn packing_stats(lengths: &[usize], batch_size: usize, max_tokens: usize) -> PackingStats {
    assert!(batch_size > 0, "batch size must be positive");
    let real_tokens: usize = lengths.iter().sum();

    // Padded batching: sequences are batched in arrival order.
    let mut padded_tokens = 0usize;
    for chunk in lengths.chunks(batch_size) {
        let max_len = chunk.iter().copied().max().unwrap_or(0);
        padded_tokens += max_len * chunk.len();
    }

    // Packing: every pack costs its actual content (mask handles separation).
    let plan = pack_sequences(lengths, max_tokens);
    let packed_tokens: usize = plan
        .packs
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|&i| lengths[i].min(max_tokens))
                .sum::<usize>()
        })
        .sum();

    PackingStats {
        real_tokens,
        padded_tokens,
        packed_tokens,
        padded_efficiency: if padded_tokens == 0 {
            1.0
        } else {
            real_tokens as f64 / padded_tokens as f64
        },
        packed_efficiency: if packed_tokens == 0 {
            1.0
        } else {
            real_tokens as f64 / packed_tokens as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_respect_token_budget() {
        let lengths = vec![100, 300, 250, 50, 400, 120, 80];
        let plan = pack_sequences(&lengths, 512);
        for pack in &plan.packs {
            let total: usize = pack.iter().map(|&i| lengths[i]).sum();
            assert!(total <= 512, "pack exceeds budget: {total}");
        }
        // Every sequence appears exactly once.
        let mut all: Vec<usize> = plan.packs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..lengths.len()).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_sequences_get_their_own_pack() {
        let lengths = vec![10_000, 20];
        let plan = pack_sequences(&lengths, 512);
        assert!(!plan.packs.is_empty());
        assert!(plan.packs.iter().any(|p| p.contains(&0)));
    }

    #[test]
    fn packing_beats_padding_on_long_tail_lengths() {
        // A long-tail batch: one very long sequence forces heavy padding.
        let lengths = vec![4000, 120, 80, 60, 200, 90, 150, 70];
        let stats = packing_stats(&lengths, 8, 4096);
        assert!(stats.padded_efficiency < 0.3);
        assert!(stats.packed_efficiency > 0.9);
        assert!(
            stats.speedup() > 2.0,
            "expected >2x speedup, got {}",
            stats.speedup()
        );
    }

    #[test]
    fn uniform_lengths_show_little_benefit() {
        let lengths = vec![128; 32];
        let stats = packing_stats(&lengths, 8, 1024);
        assert!((stats.speedup() - 1.0).abs() < 0.2);
    }

    #[test]
    fn empty_input_is_handled() {
        let stats = packing_stats(&[], 8, 512);
        assert_eq!(stats.real_tokens, 0);
        assert_eq!(stats.speedup(), 1.0);
        assert!(pack_sequences(&[], 512).packs.is_empty());
    }

    #[test]
    #[should_panic(expected = "max_tokens must be positive")]
    fn zero_budget_panics() {
        let _ = pack_sequences(&[1, 2], 0);
    }
}

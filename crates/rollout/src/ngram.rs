//! Model-free n-gram drafter (§5.3).
//!
//! Rollout responses generated for the same prompt share heavy token-level structure
//! (repeated math notation, code syntax, self-reflection phrases). The model-free
//! drafter exploits this by building an n-gram continuation table from the responses
//! already generated for a prompt group and proposing the most frequent continuation
//! of the current context. It needs no training, so it serves as the fallback
//! drafter during the first RL steps (before the learned drafter has warmed up) and
//! as the drafter of the TLT-Base baseline.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tlt_model::TokenId;

/// Configuration of the n-gram drafter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NgramConfig {
    /// Context length used as the lookup key.
    pub context_len: usize,
    /// Maximum number of tokens proposed per draft call.
    pub max_draft_len: usize,
}

impl Default for NgramConfig {
    fn default() -> Self {
        NgramConfig {
            context_len: 3,
            max_draft_len: 8,
        }
    }
}

/// Retrieval-based drafter over previously observed token sequences.
#[derive(Debug, Clone)]
pub struct NgramDrafter {
    config: NgramConfig,
    /// Maps a context window to observed next tokens and their counts.
    table: HashMap<Vec<TokenId>, HashMap<TokenId, u32>>,
    observed_tokens: usize,
}

impl NgramDrafter {
    /// Creates an empty drafter.
    pub fn new(config: NgramConfig) -> Self {
        NgramDrafter {
            config,
            table: HashMap::new(),
            observed_tokens: 0,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> NgramConfig {
        self.config
    }

    /// Total tokens ingested into the table.
    pub fn observed_tokens(&self) -> usize {
        self.observed_tokens
    }

    /// Ingests a full sequence (prompt + response) into the retrieval table.
    pub fn observe(&mut self, tokens: &[TokenId]) {
        let k = self.config.context_len;
        if tokens.len() <= k {
            return;
        }
        self.observed_tokens += tokens.len();
        for window in tokens.windows(k + 1) {
            let context = window[..k].to_vec();
            let next = window[k];
            *self
                .table
                .entry(context)
                .or_default()
                .entry(next)
                .or_insert(0) += 1;
        }
    }

    /// Most frequent observed continuation of `context`, if any.
    pub fn predict_next(&self, context: &[TokenId]) -> Option<TokenId> {
        let k = self.config.context_len;
        if context.len() < k {
            return None;
        }
        let key = &context[context.len() - k..];
        self.table.get(key).and_then(|nexts| {
            nexts
                .iter()
                .max_by_key(|(token, count)| (**count, std::cmp::Reverse(**token)))
                .map(|(&token, _)| token)
        })
    }

    /// Drafts up to `max_draft_len` tokens by repeatedly extending the context with
    /// its most frequent continuation. Stops at the first unseen context.
    pub fn draft(&self, context: &[TokenId]) -> Vec<TokenId> {
        let mut drafted = Vec::new();
        let mut extended: Vec<TokenId> = context.to_vec();
        for _ in 0..self.config.max_draft_len {
            match self.predict_next(&extended) {
                Some(next) => {
                    drafted.push(next);
                    extended.push(next);
                }
                None => break,
            }
        }
        drafted
    }

    /// Clears the retrieval table (called when moving to a new prompt group).
    pub fn clear(&mut self) {
        self.table.clear();
        self.observed_tokens = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_patterns_are_learned() {
        let mut drafter = NgramDrafter::new(NgramConfig::default());
        // A "response" with a strongly repetitive pattern.
        let seq: Vec<TokenId> = (0..10).cycle().take(100).collect();
        drafter.observe(&seq);
        let drafted = drafter.draft(&[5, 6, 7]);
        assert_eq!(drafted[..3], [8, 9, 0]);
    }

    #[test]
    fn unseen_context_returns_empty_draft() {
        let mut drafter = NgramDrafter::new(NgramConfig::default());
        drafter.observe(&[1, 2, 3, 4, 5]);
        assert!(drafter.draft(&[9, 9, 9]).is_empty());
        assert!(
            drafter.predict_next(&[1]).is_none(),
            "short context rejected"
        );
    }

    #[test]
    fn most_frequent_continuation_wins() {
        let mut drafter = NgramDrafter::new(NgramConfig {
            context_len: 2,
            max_draft_len: 4,
        });
        drafter.observe(&[1, 2, 3]);
        drafter.observe(&[1, 2, 3]);
        drafter.observe(&[1, 2, 7]);
        assert_eq!(drafter.predict_next(&[1, 2]), Some(3));
    }

    #[test]
    fn draft_length_bounded_by_config() {
        let mut drafter = NgramDrafter::new(NgramConfig {
            context_len: 1,
            max_draft_len: 3,
        });
        drafter.observe(&(0..50).map(|i| i % 4).collect::<Vec<_>>());
        assert!(drafter.draft(&[2]).len() <= 3);
    }

    #[test]
    fn clear_resets_state() {
        let mut drafter = NgramDrafter::new(NgramConfig::default());
        drafter.observe(&[1, 2, 3, 4, 5, 6]);
        drafter.clear();
        assert!(drafter.draft(&[1, 2, 3]).is_empty());
        assert_eq!(drafter.observed_tokens(), 0);
    }
}

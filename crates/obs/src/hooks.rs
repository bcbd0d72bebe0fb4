//! Global, allocation-free model-layer counters.
//!
//! The transformer's decode step is the one path in the tree that must never
//! allocate (enforced by `tests/alloc_free_decode.rs`), so its hooks cannot go
//! through the thread-local flight recorder API shape used elsewhere. Instead
//! they bump process-wide relaxed atomics: disabled, a hook is a single
//! relaxed load and return; enabled, it adds one `fetch_add`. Either way no
//! allocation and no locks.
//!
//! The counters feed the `--metrics` summary in `experiments`; they are not
//! part of the deterministic trace (worker threads may interleave updates).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DECODE_STEPS: AtomicU64 = AtomicU64::new(0);
static PREFILL_TOKENS: AtomicU64 = AtomicU64::new(0);
static SD_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SD_ACCEPTED_TOKENS: AtomicU64 = AtomicU64::new(0);
static SIM_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Turn the model counters on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the model counters off (hooks return after one relaxed load).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the counters are currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero all counters (enablement is unchanged).
pub fn reset() {
    DECODE_STEPS.store(0, Ordering::Relaxed);
    PREFILL_TOKENS.store(0, Ordering::Relaxed);
    SD_ROUNDS.store(0, Ordering::Relaxed);
    SD_ACCEPTED_TOKENS.store(0, Ordering::Relaxed);
    SIM_EVENTS.store(0, Ordering::Relaxed);
}

/// One single-token decode step ran.
#[inline]
pub fn on_decode_step() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    DECODE_STEPS.fetch_add(1, Ordering::Relaxed);
}

/// A prefill processed `tokens` prompt tokens.
#[inline]
pub fn on_prefill_tokens(tokens: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    PREFILL_TOKENS.fetch_add(tokens as u64, Ordering::Relaxed);
}

/// One speculative round completed, committing `accepted` tokens.
#[inline]
pub fn on_sd_round(accepted: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    SD_ROUNDS.fetch_add(1, Ordering::Relaxed);
    SD_ACCEPTED_TOKENS.fetch_add(accepted as u64, Ordering::Relaxed);
}

/// A serving simulator processed one simulation event.
#[inline]
pub fn on_sim_event() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    SIM_EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time copy of the model counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelCounters {
    /// Single-token decode steps.
    pub decode_steps: u64,
    /// Prompt tokens processed by prefill.
    pub prefill_tokens: u64,
    /// Speculative rounds completed.
    pub sd_rounds: u64,
    /// Tokens committed by speculative rounds.
    pub sd_accepted_tokens: u64,
    /// Simulation events processed by the serving simulators.
    pub sim_events: u64,
    /// Always 0: no simulator keeps a scheduler that could discard a stale
    /// entry. The field stays only because the repo benchmark still reads it
    /// (as `serve.stale_events`).
    pub sim_stale_events: u64,
}

/// Read all counters.
pub fn snapshot() -> ModelCounters {
    ModelCounters {
        decode_steps: DECODE_STEPS.load(Ordering::Relaxed),
        prefill_tokens: PREFILL_TOKENS.load(Ordering::Relaxed),
        sd_rounds: SD_ROUNDS.load(Ordering::Relaxed),
        sd_accepted_tokens: SD_ACCEPTED_TOKENS.load(Ordering::Relaxed),
        sim_events: SIM_EVENTS.load(Ordering::Relaxed),
        sim_stale_events: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_when_disabled_and_count_when_enabled() {
        // Counters are process-global; this test serialises with itself only,
        // so it asserts deltas rather than absolute values.
        disable();
        let before = snapshot();
        on_decode_step();
        on_prefill_tokens(64);
        on_sd_round(3);
        assert_eq!(snapshot(), before, "disabled hooks must not count");

        enable();
        let base = snapshot();
        on_decode_step();
        on_decode_step();
        on_prefill_tokens(64);
        on_sd_round(3);
        let after = snapshot();
        disable();
        assert_eq!(after.decode_steps - base.decode_steps, 2);
        assert_eq!(after.prefill_tokens - base.prefill_tokens, 64);
        assert_eq!(after.sd_rounds - base.sd_rounds, 1);
        assert_eq!(after.sd_accepted_tokens - base.sd_accepted_tokens, 3);
    }
}

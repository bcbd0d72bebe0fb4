//! Token-level speculative decoding with lossless verification.
//!
//! This module runs real speculative decoding against the tiny target model: the
//! drafter (learned EAGLE-style or model-free n-gram) proposes a chain of tokens,
//! the target verifies them in one forward pass, and the standard rejection-sampling
//! rule (Leviathan et al.) accepts a prefix and resamples at the first mismatch —
//! guaranteeing that the output distribution is *identical* to vanilla decoding,
//! which is the paper's core "lossless" requirement.
//!
//! Tree drafting and batched verification are modelled analytically for the
//! timing-level simulations (see `tlt_draft::AcceptanceProfile` and
//! [`crate::sim_engine`]); the token-level engine here uses chain drafting, which is
//! sufficient to measure acceptance behaviour and to property-test losslessness.

use crate::ngram::NgramDrafter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tlt_draft::{DraftModel, DraftScratch, DraftState, FeatureSource};
use tlt_model::{
    parallel_map, probs_from_logits_into, sample_from_probs, sample_from_residual, DecodeWorkspace,
    KvStore, Mat, PagedKv, PagedKvCache, PagedKvPool, PrefixIndex, SamplingParams, TinyLm, TokenId,
};

/// A speculative-decoding configuration tuple — the "arm" of the BEG-MAB tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SdStrategy {
    /// Number of sequential drafter steps per speculative round.
    pub draft_depth: usize,
    /// Tree top-K (branching factor) used by tree drafting.
    pub top_k: usize,
    /// Number of drafted tree tokens submitted to the target for verification.
    pub tokens_to_verify: usize,
}

impl SdStrategy {
    /// The default strategy set used by the adaptive rollout engine, ordered from
    /// small-batch-friendly (deep, wide verification) to large-batch-friendly.
    pub fn default_set() -> Vec<SdStrategy> {
        vec![
            SdStrategy {
                draft_depth: 10,
                top_k: 8,
                tokens_to_verify: 64,
            },
            SdStrategy {
                draft_depth: 8,
                top_k: 8,
                tokens_to_verify: 48,
            },
            SdStrategy {
                draft_depth: 6,
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
}

impl Default for SdStrategy {
    fn default() -> Self {
        SdStrategy {
            draft_depth: 6,
            top_k: 8,
            tokens_to_verify: 48,
        }
    }
}

/// Which drafter proposes tokens.
#[derive(Debug)]
pub enum SpecDrafter<'a> {
    /// Learned EAGLE-style drafter (must use [`FeatureSource::LastLayer`]).
    Learned(&'a DraftModel),
    /// Model-free n-gram retrieval drafter.
    ModelFree(&'a NgramDrafter),
}

/// Outcome of generating one response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationResult {
    /// Generated (response) tokens, excluding the prompt.
    pub tokens: Vec<TokenId>,
    /// Number of target forward passes (decode or verify steps).
    pub target_steps: usize,
    /// Tokens committed per verification step (speculative runs only).
    pub accept_lengths: Vec<usize>,
    /// Per-draft-position acceptance counts: `attempts[i]` / `accepted[i]` give the
    /// Figure-16 style accept rate at drafted position `i`.
    pub position_attempts: Vec<usize>,
    /// Accepted counts per drafted position.
    pub position_accepted: Vec<usize>,
    /// The target's frozen-trunk output ([`tlt_model::DecodeWorkspace::trunk_out`])
    /// at every response position but the last, captured as each token entered
    /// the KV cache: bit for bit rows `prompt.len()..` of
    /// `trunk_forward(prompt ++ tokens[..n - 1])`, which the policy update takes.
    pub trunk: Mat,
}

impl GenerationResult {
    /// Mean number of tokens committed per verification step.
    pub fn mean_accept_length(&self) -> f64 {
        if self.accept_lengths.is_empty() {
            1.0
        } else {
            self.accept_lengths.iter().sum::<usize>() as f64 / self.accept_lengths.len() as f64
        }
    }

    /// Acceptance rate at drafted position `i`, if measured.
    pub fn accept_rate_at(&self, i: usize) -> Option<f64> {
        let attempts = *self.position_attempts.get(i)?;
        if attempts == 0 {
            return None;
        }
        Some(self.position_accepted[i] as f64 / attempts as f64)
    }
}

/// Generates `max_new` tokens autoregressively with the target model only.
///
/// Runs on a reusable [`DecodeWorkspace`], so every step after the first is
/// allocation-free; results are bit-identical to the allocating forward path.
pub fn vanilla_generate<R: Rng>(
    target: &TinyLm,
    prompt: &[TokenId],
    max_new: usize,
    params: SamplingParams,
    eos: Option<TokenId>,
    rng: &mut R,
) -> GenerationResult {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut cache = target.new_cache();
    let mut ws = DecodeWorkspace::new(&target.config);
    target.forward_into(prompt, &mut cache, &mut ws);
    let prompt_logits = ws.logits().row(ws.logits().rows() - 1).to_vec();
    vanilla_continue(
        target,
        &mut cache,
        &mut ws,
        &prompt_logits,
        max_new,
        params,
        eos,
        rng,
    )
}

/// The decode loop of [`vanilla_generate`], continuing from a cache that
/// already holds the prompt KV. `prompt_logits` is the logits row of the
/// prompt's final position (where the first sample comes from). Generic over
/// the KV backend, which is how a paged rollout group continues from a forked
/// shared prompt.
#[allow(clippy::too_many_arguments)]
fn vanilla_continue<K: KvStore, R: Rng>(
    target: &TinyLm,
    cache: &mut K,
    ws: &mut DecodeWorkspace,
    prompt_logits: &[f32],
    max_new: usize,
    params: SamplingParams,
    eos: Option<TokenId>,
    rng: &mut R,
) -> GenerationResult {
    let mut probs = Vec::with_capacity(target.config.vocab_size);
    let mut tokens = Vec::new();
    let mut trunk = Mat::zeros(0, target.config.hidden);
    let mut steps = 0usize;
    for i in 0..max_new {
        if i == 0 {
            probs_from_logits_into(prompt_logits, params, &mut probs);
        } else {
            let last_row = ws.logits().rows() - 1;
            probs_from_logits_into(ws.logits().row(last_row), params, &mut probs);
        }
        let next = sample_from_probs(&probs, rng) as TokenId;
        tokens.push(next);
        steps += 1;
        // The last token's logits are never sampled from, so it is not decoded.
        if Some(next) == eos
            || i + 1 == max_new
            || cache.kv_seq_len() + 1 >= target.config.max_seq_len
        {
            break;
        }
        target.decode_step(next, cache, ws);
        trunk.extend_rows_range(ws.trunk_out(), 0, 1);
    }
    GenerationResult {
        tokens,
        target_steps: steps,
        accept_lengths: Vec::new(),
        position_attempts: Vec::new(),
        position_accepted: Vec::new(),
        trunk,
    }
}

/// Generates `max_new` tokens with chain speculative decoding, verifying against the
/// target with lossless rejection sampling.
///
/// # Panics
///
/// Panics if the prompt is empty or a learned drafter with a multi-layer feature
/// source is supplied (the token-level engine supports last-layer drafters).
// The argument list deliberately mirrors `vanilla_generate` plus the SD knobs, so
// call sites can switch between the two generators mechanically.
#[allow(clippy::too_many_arguments)]
pub fn speculative_generate<R: Rng>(
    target: &TinyLm,
    drafter: &SpecDrafter<'_>,
    prompt: &[TokenId],
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    eos: Option<TokenId>,
    rng: &mut R,
) -> GenerationResult {
    speculative_generate_with_swap(
        target,
        &[(usize::MAX, drafter)],
        prompt,
        max_new,
        strategy,
        params,
        eos,
        rng,
    )
}

/// Chain speculative decoding whose proposing drafter changes mid-generation:
/// `schedule` is a list of `(rounds, drafter)` segments — each drafter proposes
/// for its round budget, then the next takes over (the final drafter runs to
/// completion regardless of its budget). This is the hot-swap path the chaos
/// harness exercises: a checkpoint swap (or a fallback to the last good drafter)
/// between speculative rounds. The swap resets only the *drafter's* KV state;
/// the target-side verification is untouched, so the rejection-sampling rule
/// keeps the output distribution bit-identical to vanilla decoding no matter
/// when — or how often — the drafter changes.
///
/// # Panics
///
/// Panics if the prompt or schedule is empty, or if any learned drafter uses a
/// multi-layer feature source.
#[allow(clippy::too_many_arguments)]
pub fn speculative_generate_with_swap<R: Rng>(
    target: &TinyLm,
    schedule: &[(usize, &SpecDrafter<'_>)],
    prompt: &[TokenId],
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    eos: Option<TokenId>,
    rng: &mut R,
) -> GenerationResult {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    assert!(
        !schedule.is_empty(),
        "schedule must name at least one drafter"
    );
    for (_, drafter) in schedule {
        if let SpecDrafter::Learned(model) = drafter {
            assert_eq!(
                model.feature_source,
                FeatureSource::LastLayer,
                "token-level engine requires a last-layer drafter"
            );
        }
    }
    let depth = strategy.draft_depth.max(1);

    let mut cache = target.new_cache();
    let mut ws = DecodeWorkspace::new(&target.config);
    target.forward_into(prompt, &mut cache, &mut ws);
    // The drafter consumes last-layer features of every committed position; grow an
    // owned copy in place (reserved up front so appends never reallocate).
    let mut features = Mat::zeros(0, target.config.hidden);
    features.reserve_rows(
        (prompt.len() + max_new + depth + 1).min(target.config.max_seq_len),
        target.config.hidden,
    );
    features.extend_rows_range(ws.last_hidden(), 0, ws.last_hidden().rows());
    let prompt_logits = ws.logits().row(ws.logits().rows() - 1).to_vec();
    speculative_continue(
        target,
        schedule,
        prompt,
        max_new,
        strategy,
        params,
        eos,
        rng,
        &mut cache,
        &mut ws,
        features,
        &prompt_logits,
    )
}

/// The speculative rounds of [`speculative_generate_with_swap`], continuing
/// from a cache that already holds the prompt KV, the target's last-layer
/// `features` for every cached position, and the logits row of the prompt's
/// final position. Generic over the KV backend, which is how a paged rollout
/// group runs speculative continuations off one forked shared prompt.
#[allow(clippy::too_many_arguments)]
fn speculative_continue<K: KvStore, R: Rng>(
    target: &TinyLm,
    schedule: &[(usize, &SpecDrafter<'_>)],
    prompt: &[TokenId],
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    eos: Option<TokenId>,
    rng: &mut R,
    cache: &mut K,
    ws: &mut DecodeWorkspace,
    mut features: Mat,
    prompt_logits: &[f32],
) -> GenerationResult {
    let depth = strategy.draft_depth.max(1);
    // Per-segment drafter bookkeeping: the scratch and incremental KV state are
    // rebuilt whenever the active drafter changes (a swapped-in drafter primes
    // its own KV from the committed features on its first round).
    let mut segment = 0usize;
    let mut rounds_in_segment = 0usize;
    let mut draft_scratch: Option<DraftScratch> = None;
    let mut draft_state: Option<DraftState> = None;
    let mut all_tokens: Vec<TokenId> = prompt.to_vec();

    // Sample the first generated token from the prompt's final distribution; it
    // becomes the "pending" token (committed but not yet in the target KV cache).
    let mut probs = Vec::with_capacity(target.config.vocab_size);
    probs_from_logits_into(prompt_logits, params, &mut probs);
    let mut pending: TokenId = sample_from_probs(&probs, rng) as TokenId;
    let mut generated: Vec<TokenId> = vec![pending];
    let mut trunk = Mat::zeros(0, target.config.hidden);

    let mut accept_lengths = Vec::new();
    let mut position_attempts = vec![0usize; depth];
    let mut position_accepted = vec![0usize; depth];
    let mut target_steps = 1usize; // the prefill produced one sampled token
    let mut draft_tokens: Vec<TokenId> = Vec::with_capacity(depth);
    let mut draft_dists: Vec<Vec<f32>> = Vec::new(); // per-position buffers, reused
    let mut block: Vec<TokenId> = Vec::with_capacity(depth + 1);

    while generated.len() < max_new && Some(pending) != eos {
        // Hot-swap point: once the active segment's round budget is spent, the
        // next drafter takes over with a fresh drafter-side KV state.
        if segment + 1 < schedule.len() && rounds_in_segment >= schedule[segment].0 {
            segment += 1;
            rounds_in_segment = 0;
            draft_state = None;
            draft_scratch = None;
        }
        let drafter = schedule[segment].1;
        rounds_in_segment += 1;
        // Budget left, bounded by the model's positional table.
        let room = target
            .config
            .max_seq_len
            .saturating_sub(cache.kv_seq_len() + 1)
            .min(max_new - generated.len());
        if room == 0 {
            break;
        }
        let draft_len = depth.min(room.saturating_sub(1));
        while draft_dists.len() < draft_len {
            draft_dists.push(Vec::with_capacity(target.config.vocab_size));
        }

        // --- Drafting stage ---
        draft_tokens.clear();
        match drafter {
            SpecDrafter::Learned(model) => {
                let scratch = draft_scratch
                    .get_or_insert_with(|| DraftScratch::new(target, model.feature_source));
                all_tokens.push(pending);
                let state = match draft_state.as_mut() {
                    Some(state) => {
                        // Re-prime only the newly committed positions; KV entries
                        // for older positions are bit-identical across rounds.
                        model.resume_draft(
                            target,
                            &features,
                            &all_tokens[..features.rows()],
                            state,
                            scratch,
                        );
                        state
                    }
                    None => draft_state.insert(model.begin_draft_with(
                        target,
                        &features,
                        &all_tokens[..features.rows()],
                        scratch,
                    )),
                };
                all_tokens.pop();
                let mut last = pending;
                for dist in draft_dists.iter_mut().take(draft_len) {
                    let logits = model.draft_step_into(target, state, last, scratch);
                    probs_from_logits_into(logits, params, dist);
                    let tok = sample_from_probs(dist, rng) as TokenId;
                    draft_tokens.push(tok);
                    last = tok;
                }
            }
            SpecDrafter::ModelFree(ngram) => {
                all_tokens.push(pending);
                let proposed = ngram.draft(&all_tokens);
                all_tokens.pop();
                for (d, tok) in proposed.into_iter().take(draft_len).enumerate() {
                    let one_hot = &mut draft_dists[d];
                    one_hot.clear();
                    one_hot.resize(target.config.vocab_size, 0.0);
                    one_hot[tok as usize] = 1.0;
                    draft_tokens.push(tok);
                }
            }
        }

        // --- Verification stage: target processes [pending, d_1, ..., d_k] at once ---
        block.clear();
        block.push(pending);
        block.extend_from_slice(&draft_tokens);
        let pre_verify_len = cache.kv_seq_len();
        target.forward_into(&block, cache, ws);
        target_steps += 1;

        // Accept/reject drafted tokens with lossless rejection sampling.
        let mut accepted = 0usize;
        let mut next_pending: Option<TokenId> = None;
        for (i, &tok) in draft_tokens.iter().enumerate() {
            probs_from_logits_into(ws.logits().row(i), params, &mut probs);
            let q = &draft_dists[i];
            position_attempts[i] += 1;
            let p_tok = probs[tok as usize];
            let q_tok = q[tok as usize].max(f32::EPSILON);
            let accept = if params.is_greedy() {
                p_tok >= 1.0 - f32::EPSILON
            } else {
                rng.gen::<f32>() < (p_tok / q_tok).min(1.0)
            };
            if accept {
                accepted += 1;
                position_accepted[i] += 1;
            } else {
                let replacement = if params.is_greedy() {
                    tlt_model::argmax(&probs) as TokenId
                } else {
                    sample_from_residual(&probs, q, rng) as TokenId
                };
                next_pending = Some(replacement);
                break;
            }
        }
        if next_pending.is_none() {
            // Every drafted token accepted: sample the bonus token from the target's
            // distribution after the last drafted token.
            probs_from_logits_into(ws.logits().row(draft_tokens.len()), params, &mut probs);
            next_pending = Some(sample_from_probs(&probs, rng) as TokenId);
        }
        let next_pending = next_pending.expect("pending token chosen");

        // Commit: pending + accepted drafted tokens enter the sequence; roll the KV
        // cache back past the rejected suffix.
        let committed_in_block = 1 + accepted;
        cache.kv_truncate(pre_verify_len + committed_in_block);
        all_tokens.push(pending);
        all_tokens.extend_from_slice(&draft_tokens[..accepted]);
        features.extend_rows_range(ws.last_hidden(), 0, committed_in_block);
        trunk.extend_rows_range(ws.trunk_out(), 0, committed_in_block);

        // Everything before this round's tokens was scanned for EOS already.
        let round_start = generated.len();
        generated.extend_from_slice(&draft_tokens[..accepted]);
        accept_lengths.push(accepted + 1);
        // Round-level observability. The standalone loop has no sim clock, so
        // its trace uses the SD round index as the time axis (one unit per
        // round); the hook feeds the global model counters.
        tlt_obs::hooks::on_sd_round(accepted + 1);
        tlt_obs::record(
            tlt_obs::ObsEvent::span(
                (accept_lengths.len() - 1) as f64,
                1.0,
                tlt_obs::Track::Rollout,
                tlt_obs::EventKind::RolloutRound,
                tlt_obs::NO_REQ,
            )
            .with_args((accepted + 1) as f64, draft_len as f64),
        );
        if generated.len() < max_new {
            generated.push(next_pending);
        }
        pending = next_pending;

        // Early exit when an accepted token is EOS.
        if let Some(e) = eos {
            if let Some(pos) = generated[round_start..].iter().position(|&t| t == e) {
                generated.truncate(round_start + pos + 1);
                break;
            }
        }
    }

    generated.truncate(max_new);
    // An EOS inside the last block leaves committed rows past the response.
    trunk.set_rows(generated.len().saturating_sub(1), target.config.hidden);
    GenerationResult {
        tokens: generated,
        target_steps,
        accept_lengths,
        position_attempts,
        position_accepted,
        trunk,
    }
}

/// Derives the per-sequence RNG seed for [`generate_batch`]: a fixed odd-constant
/// hash of the sequence index mixed into the base seed.
pub fn batch_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates one response per prompt on the shared worker pool
/// ([`tlt_model::parallel_map`]), each sequence with its own KV cache, decode
/// workspace, and RNG seeded by [`batch_seed`].
///
/// Results are merged back in prompt order, so the output is identical to calling
/// [`vanilla_generate`] / [`speculative_generate`] sequentially with the same
/// per-index seeds — worker count only changes wall-clock time.
#[allow(clippy::too_many_arguments)]
pub fn generate_batch(
    target: &TinyLm,
    drafter: Option<&SpecDrafter<'_>>,
    prompts: &[Vec<TokenId>],
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    eos: Option<TokenId>,
    base_seed: u64,
) -> Vec<GenerationResult> {
    let items: Vec<&[TokenId]> = prompts.iter().map(Vec::as_slice).collect();
    parallel_map(items, |i, prompt| {
        let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
        match drafter {
            Some(d) => {
                speculative_generate(target, d, prompt, max_new, strategy, params, eos, &mut rng)
            }
            None => vanilla_generate(target, prompt, max_new, params, eos, &mut rng),
        }
    })
}

/// Generates a GRPO-style rollout group on a paged KV pool: the prompt is
/// prefilled **once**, its KV blocks are forked (refcount bumps, no copies)
/// across all `group_size` continuations, and each continuation decodes
/// against its fork — the first divergent append copies on write. With a
/// [`PrefixIndex`], vanilla groups additionally match the prompt against
/// blocks left resident by earlier groups and start prefill at the divergence
/// point (speculative groups always prefill the whole prompt because the
/// drafter consumes the target's features for every prompt position).
///
/// Continuation `i` draws from an RNG seeded with [`batch_seed`]`(base_seed, i)`,
/// so the results are **bit-identical** to calling [`vanilla_generate`] /
/// [`speculative_generate`] per continuation with those seeds — sharing only
/// removes recomputation. On return every block the group held has been
/// released; only blocks the index keeps resident survive.
///
/// # Panics
///
/// Panics if the prompt is empty, the group is empty, or the pool runs out of
/// blocks (size it for roughly
/// `prompt + group_size * (max_new + draft_depth + block_size)` positions).
#[allow(clippy::too_many_arguments)]
pub fn generate_group(
    target: &TinyLm,
    drafter: Option<&SpecDrafter<'_>>,
    prompt: &[TokenId],
    group_size: usize,
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    eos: Option<TokenId>,
    base_seed: u64,
    pool: &mut PagedKvPool,
    mut index: Option<&mut PrefixIndex>,
) -> Vec<GenerationResult> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    assert!(group_size > 0, "group must hold at least one continuation");
    let mut ws = DecodeWorkspace::new(&target.config);
    let mut base = target.new_paged_cache();

    // Prefix reuse: adopt resident blocks covering a full-block prefix of the
    // prompt, keeping at least the final prompt token novel so the prefill
    // pass still produces the logits the first sample comes from.
    let mut novel_start = 0usize;
    if drafter.is_none() {
        if let Some(index) = index.as_deref_mut() {
            // Cap reuse at prompt_len - 1 so the final prompt token stays
            // novel and the prefill pass still produces the first logits.
            let (blocks, first_novel) =
                index.lookup_capped(pool, prompt, prompt.len().saturating_sub(1));
            novel_start = first_novel;
            if !blocks.is_empty() {
                base = PagedKvCache::from_shared(
                    blocks,
                    novel_start,
                    target.config.num_layers,
                    pool.block_size(),
                );
            }
        }
    }
    {
        let mut kv = PagedKv {
            pool: &mut *pool,
            cache: &mut base,
        };
        target.forward_into(&prompt[novel_start..], &mut kv, &mut ws);
    }
    let base_features = ws.last_hidden().clone();
    let prompt_logits = ws.logits().row(ws.logits().rows() - 1).to_vec();

    // Leave the prompt's full blocks resident for future groups.
    if let Some(index) = index {
        index.insert(pool, prompt, base.full_blocks(pool.block_size()));
    }

    let depth = strategy.draft_depth.max(1);
    let mut results = Vec::with_capacity(group_size);
    for i in 0..group_size {
        let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
        let mut continuation = base.fork(pool);
        let result = match drafter {
            None => {
                let mut kv = PagedKv {
                    pool: &mut *pool,
                    cache: &mut continuation,
                };
                vanilla_continue(
                    target,
                    &mut kv,
                    &mut ws,
                    &prompt_logits,
                    max_new,
                    params,
                    eos,
                    &mut rng,
                )
            }
            Some(d) => {
                debug_assert_eq!(novel_start, 0, "speculative groups prefill fully");
                let mut features = Mat::zeros(0, target.config.hidden);
                features.reserve_rows(
                    (prompt.len() + max_new + depth + 1).min(target.config.max_seq_len),
                    target.config.hidden,
                );
                features.extend_rows_range(&base_features, 0, base_features.rows());
                let schedule = [(usize::MAX, d)];
                let mut kv = PagedKv {
                    pool: &mut *pool,
                    cache: &mut continuation,
                };
                speculative_continue(
                    target,
                    &schedule,
                    prompt,
                    max_new,
                    strategy,
                    params,
                    eos,
                    &mut rng,
                    &mut kv,
                    &mut ws,
                    features,
                    &prompt_logits,
                )
            }
        };
        continuation.release(pool);
        results.push(result);
    }
    base.release(pool);
    results
}

/// Measures per-position acceptance rates of a drafter against a target over a set of
/// prompts, returning one rate per drafted position (Figure 16 / Table 6 measurements).
pub fn measure_acceptance<R: Rng>(
    target: &TinyLm,
    drafter: &SpecDrafter<'_>,
    prompts: &[Vec<TokenId>],
    max_new: usize,
    strategy: SdStrategy,
    params: SamplingParams,
    rng: &mut R,
) -> (Vec<f64>, f64) {
    let mut attempts = vec![0usize; strategy.draft_depth];
    let mut accepted = vec![0usize; strategy.draft_depth];
    let mut accept_len_sum = 0.0;
    let mut accept_len_count = 0usize;
    for prompt in prompts {
        let result = speculative_generate(
            target, drafter, prompt, max_new, strategy, params, None, rng,
        );
        for i in 0..strategy.draft_depth {
            attempts[i] += result.position_attempts.get(i).copied().unwrap_or(0);
            accepted[i] += result.position_accepted.get(i).copied().unwrap_or(0);
        }
        accept_len_sum += result.accept_lengths.iter().sum::<usize>() as f64;
        accept_len_count += result.accept_lengths.len();
    }
    let rates = attempts
        .iter()
        .zip(accepted.iter())
        .map(|(&a, &acc)| if a == 0 { 0.0 } else { acc as f64 / a as f64 })
        .collect();
    let mean_accept = if accept_len_count == 0 {
        1.0
    } else {
        accept_len_sum / accept_len_count as f64
    };
    (rates, mean_accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tlt_model::ModelConfig;

    fn setup() -> (TinyLm, DraftModel) {
        let target = TinyLm::new(ModelConfig::micro(), 40);
        let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 4);
        (target, drafter)
    }

    #[test]
    fn greedy_speculative_output_identical_to_vanilla() {
        // The losslessness guarantee, in its strongest observable form: under greedy
        // decoding the speculative engine must emit exactly the vanilla sequence.
        let (target, drafter) = setup();
        let params = SamplingParams::greedy();
        for seed in 0..5u64 {
            let prompt: Vec<TokenId> = vec![1 + seed as u32, 5, 9, 2];
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let vanilla = vanilla_generate(&target, &prompt, 24, params, None, &mut rng_a);
            let spec = speculative_generate(
                &target,
                &SpecDrafter::Learned(&drafter),
                &prompt,
                24,
                SdStrategy::default(),
                params,
                None,
                &mut rng_b,
            );
            assert_eq!(spec.tokens, vanilla.tokens, "seed {seed}");
        }
    }

    #[test]
    fn greedy_model_free_output_identical_to_vanilla() {
        let (target, _) = setup();
        let params = SamplingParams::greedy();
        let prompt: Vec<TokenId> = vec![3, 1, 4, 1];
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, 20, params, None, &mut rng);
        // Let the n-gram drafter observe the vanilla output so it drafts aggressively.
        let mut ngram = NgramDrafter::new(crate::ngram::NgramConfig::default());
        let mut observed = prompt.clone();
        observed.extend_from_slice(&vanilla.tokens);
        ngram.observe(&observed);
        let mut rng = StdRng::seed_from_u64(1);
        let spec = speculative_generate(
            &target,
            &SpecDrafter::ModelFree(&ngram),
            &prompt,
            20,
            SdStrategy::default(),
            params,
            None,
            &mut rng,
        );
        assert_eq!(spec.tokens, vanilla.tokens);
        // And the drafter actually helped: fewer target steps than tokens generated.
        assert!(spec.target_steps < vanilla.target_steps);
    }

    #[test]
    fn speculative_uses_fewer_target_steps_than_vanilla() {
        let (target, drafter) = setup();
        let params = SamplingParams::greedy();
        let prompt: Vec<TokenId> = vec![2, 7, 2, 7];
        let mut rng = StdRng::seed_from_u64(3);
        let vanilla = vanilla_generate(&target, &prompt, 30, params, None, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let spec = speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            30,
            SdStrategy::default(),
            params,
            None,
            &mut rng,
        );
        assert_eq!(spec.tokens.len(), vanilla.tokens.len());
        assert!(
            spec.target_steps <= vanilla.target_steps,
            "spec {} vs vanilla {}",
            spec.target_steps,
            vanilla.target_steps
        );
        assert!(spec.mean_accept_length() >= 1.0);
    }

    #[test]
    fn drafter_swap_mid_generation_is_bit_lossless_under_greedy() {
        // The chaos-harness guarantee: swapping the drafter between speculative
        // rounds (checkpoint adoption or last-good fallback) must not change a
        // single output token. Exercise learned->learned and learned->ngram
        // swaps at several swap points.
        let (target, drafter_a) = setup();
        let drafter_b = DraftModel::new(&target, FeatureSource::LastLayer, 77);
        let mut ngram = NgramDrafter::new(crate::ngram::NgramConfig::default());
        ngram.observe(&[1, 5, 9, 2, 4, 1, 5, 9]);
        let params = SamplingParams::greedy();
        let prompt: Vec<TokenId> = vec![1, 5, 9, 2];
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, 28, params, None, &mut rng);
        let spec_a = SpecDrafter::Learned(&drafter_a);
        let spec_b = SpecDrafter::Learned(&drafter_b);
        let spec_n = SpecDrafter::ModelFree(&ngram);
        let schedules: Vec<Vec<(usize, &SpecDrafter)>> = vec![
            vec![(2, &spec_a), (usize::MAX, &spec_b)],
            vec![(1, &spec_a), (1, &spec_b), (usize::MAX, &spec_a)],
            vec![(2, &spec_a), (usize::MAX, &spec_n)],
            vec![(1, &spec_n), (usize::MAX, &spec_a)],
        ];
        for (i, schedule) in schedules.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1);
            let swapped = speculative_generate_with_swap(
                &target,
                schedule,
                &prompt,
                28,
                SdStrategy::default(),
                params,
                None,
                &mut rng,
            );
            assert_eq!(swapped.tokens, vanilla.tokens, "schedule {i}");
        }
    }

    #[test]
    fn single_segment_schedule_matches_plain_speculative_generate() {
        let (target, drafter) = setup();
        let params = SamplingParams {
            temperature: 0.8,
            top_k: None,
        };
        let prompt: Vec<TokenId> = vec![2, 7, 2, 7];
        let spec = SpecDrafter::Learned(&drafter);
        let mut rng_a = StdRng::seed_from_u64(11);
        let plain = speculative_generate(
            &target,
            &spec,
            &prompt,
            24,
            SdStrategy::default(),
            params,
            None,
            &mut rng_a,
        );
        let mut rng_b = StdRng::seed_from_u64(11);
        let scheduled = speculative_generate_with_swap(
            &target,
            &[(usize::MAX, &spec)],
            &prompt,
            24,
            SdStrategy::default(),
            params,
            None,
            &mut rng_b,
        );
        assert_eq!(plain, scheduled);
    }

    #[test]
    fn sampled_speculative_matches_vanilla_marginals() {
        // Distributional losslessness under temperature sampling: the marginal
        // frequency of the first generated token must match vanilla decoding.
        let (target, drafter) = setup();
        let params = SamplingParams {
            temperature: 1.0,
            top_k: None,
        };
        let prompt: Vec<TokenId> = vec![1, 2, 3];
        let trials = 3000;
        let vocab = target.config.vocab_size;
        // Compare the marginal of the third generated token, which is produced by the
        // accept/reject path (not just the prefill sample).
        let mut vanilla_counts = vec![0usize; vocab];
        let mut spec_counts = vec![0usize; vocab];
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let v = vanilla_generate(&target, &prompt, 4, params, None, &mut rng);
            vanilla_counts[v.tokens[2] as usize] += 1;
            let mut rng = StdRng::seed_from_u64(500_000 + seed);
            let s = speculative_generate(
                &target,
                &SpecDrafter::Learned(&drafter),
                &prompt,
                4,
                SdStrategy::default(),
                params,
                None,
                &mut rng,
            );
            spec_counts[s.tokens[2] as usize] += 1;
        }
        // Total-variation distance between the two empirical marginals must be small.
        let tv: f64 = vanilla_counts
            .iter()
            .zip(spec_counts.iter())
            .map(|(&a, &b)| ((a as f64 - b as f64) / trials as f64).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.15, "total-variation distance too large: {tv}");
    }

    #[test]
    fn generate_batch_matches_sequential_generation() {
        let (target, drafter) = setup();
        let params = SamplingParams {
            temperature: 0.8,
            top_k: None,
        };
        let prompts: Vec<Vec<TokenId>> = (0..6u32).map(|i| vec![i + 1, 3, i % 5 + 2]).collect();
        let base_seed = 77;

        // Speculative batch: parallel merge must reproduce the sequential loop.
        let spec_batch = generate_batch(
            &target,
            Some(&SpecDrafter::Learned(&drafter)),
            &prompts,
            16,
            SdStrategy::default(),
            params,
            None,
            base_seed,
        );
        for (i, prompt) in prompts.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
            let sequential = speculative_generate(
                &target,
                &SpecDrafter::Learned(&drafter),
                prompt,
                16,
                SdStrategy::default(),
                params,
                None,
                &mut rng,
            );
            assert_eq!(spec_batch[i], sequential, "sequence {i}");
        }

        // Vanilla batch uses the same per-index seeding.
        let vanilla_batch = generate_batch(
            &target,
            None,
            &prompts,
            16,
            SdStrategy::default(),
            params,
            None,
            base_seed,
        );
        for (i, prompt) in prompts.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
            let sequential = vanilla_generate(&target, prompt, 16, params, None, &mut rng);
            assert_eq!(vanilla_batch[i], sequential, "sequence {i}");
        }
    }

    #[test]
    fn generate_group_matches_per_sequence_generation_bit_for_bit() {
        let (target, drafter) = setup();
        let params = SamplingParams {
            temperature: 0.8,
            top_k: None,
        };
        let prompt: Vec<TokenId> = vec![3, 1, 4, 1, 5];
        let base_seed = 41;
        let group = 5usize;

        // Vanilla group: one shared prefill, five forked continuations.
        let mut pool = target.new_paged_pool(4, 2048);
        let results = generate_group(
            &target,
            None,
            &prompt,
            group,
            20,
            SdStrategy::default(),
            params,
            None,
            base_seed,
            &mut pool,
            None,
        );
        for (i, result) in results.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
            let solo = vanilla_generate(&target, &prompt, 20, params, None, &mut rng);
            assert_eq!(result, &solo, "vanilla continuation {i}");
        }
        assert_eq!(pool.blocks_in_use(), 0, "group released every block");
        assert!(pool.check_conservation().is_ok());

        // Speculative group: forked prompt KV through full speculative rounds
        // (drafter KV resumes across rounds via resume_draft).
        let results = generate_group(
            &target,
            Some(&SpecDrafter::Learned(&drafter)),
            &prompt,
            group,
            20,
            SdStrategy::default(),
            params,
            None,
            base_seed,
            &mut pool,
            None,
        );
        for (i, result) in results.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
            let solo = speculative_generate(
                &target,
                &SpecDrafter::Learned(&drafter),
                &prompt,
                20,
                SdStrategy::default(),
                params,
                None,
                &mut rng,
            );
            assert_eq!(result, &solo, "speculative continuation {i}");
        }
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn prefix_index_lets_a_second_group_prefill_only_the_divergent_suffix() {
        let (target, _) = setup();
        let params = SamplingParams::greedy();
        let base_seed = 17;
        let mut pool = target.new_paged_pool(4, 2048);
        let mut index = tlt_model::PrefixIndex::new(4);

        // Two prompts sharing an 8-token (two-block) system prefix.
        let system: Vec<TokenId> = vec![2, 7, 1, 8, 2, 8, 1, 8];
        let mut prompt_a = system.clone();
        prompt_a.extend_from_slice(&[3, 5]);
        let mut prompt_b = system.clone();
        prompt_b.extend_from_slice(&[9, 4, 6]);

        let first = generate_group(
            &target,
            None,
            &prompt_a,
            2,
            12,
            SdStrategy::default(),
            params,
            None,
            base_seed,
            &mut pool,
            Some(&mut index),
        );
        assert_eq!(index.resident_blocks(), 2, "system prefix left resident");
        let second = generate_group(
            &target,
            None,
            &prompt_b,
            2,
            12,
            SdStrategy::default(),
            params,
            None,
            base_seed,
            &mut pool,
            Some(&mut index),
        );
        // The second group matched the two resident system blocks: its prefill
        // started at position 8, and the outputs are still bit-identical to
        // per-sequence generation with a cold cache.
        assert!(index.hit_rate() > 0.0, "second lookup must hit");
        for (i, result) in second.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(batch_seed(base_seed, i));
            let solo = vanilla_generate(&target, &prompt_b, 12, params, None, &mut rng);
            assert_eq!(result, &solo, "reused-prefix continuation {i}");
        }
        // Rerunning prompt A hits its own full-block prefix too.
        let replay = generate_group(
            &target,
            None,
            &prompt_a,
            2,
            12,
            SdStrategy::default(),
            params,
            None,
            base_seed,
            &mut pool,
            Some(&mut index),
        );
        assert_eq!(replay, first, "prefix reuse is invisible in the output");

        // Only the resident index blocks survive; releasing the index drains
        // the pool completely.
        assert_eq!(pool.blocks_in_use(), index.resident_blocks());
        index.release_all(&mut pool);
        assert_eq!(pool.blocks_in_use(), 0);
        assert!(pool.check_conservation().is_ok());
    }

    #[test]
    fn respects_max_new_and_eos() {
        let (target, drafter) = setup();
        let params = SamplingParams::greedy();
        let prompt: Vec<TokenId> = vec![1, 2];
        let mut rng = StdRng::seed_from_u64(9);
        let result = speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            7,
            SdStrategy::default(),
            params,
            None,
            &mut rng,
        );
        assert!(result.tokens.len() <= 7);
        // With EOS = the first generated token, generation stops immediately after it.
        let eos = result.tokens[0];
        let mut rng = StdRng::seed_from_u64(9);
        let with_eos = speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            7,
            SdStrategy::default(),
            params,
            Some(eos),
            &mut rng,
        );
        assert_eq!(with_eos.tokens.iter().filter(|&&t| t == eos).count(), 1);
        assert_eq!(*with_eos.tokens.last().unwrap(), eos);
    }

    #[test]
    fn trained_drafter_achieves_higher_acceptance_than_untrained() {
        let (target, untrained) = setup();
        // Train a drafter on target rollouts.
        let mut trainer =
            tlt_draft::DrafterTrainer::new(&target, tlt_draft::TrainerConfig::default(), 8);
        let mut rng = StdRng::seed_from_u64(11);
        let params = SamplingParams::greedy();
        let mut samples = Vec::new();
        for i in 0..6u64 {
            let prompt: Vec<TokenId> = vec![(i % 7) as u32 + 1, 3, 5];
            let gen = vanilla_generate(&target, &prompt, 20, params, None, &mut rng);
            let mut tokens = prompt.clone();
            tokens.extend_from_slice(&gen.tokens);
            samples.push(tlt_draft::TrainingSample::from_rollout(
                &target,
                FeatureSource::LastLayer,
                &tokens,
                gen.tokens.len(),
                0,
                i,
            ));
        }
        let refs: Vec<&tlt_draft::TrainingSample> = samples.iter().collect();
        for _ in 0..40 {
            trainer.train_iteration(&target, &refs);
        }
        let prompts: Vec<Vec<TokenId>> = (0..4u32).map(|i| vec![i + 1, 3, 5]).collect();
        let strategy = SdStrategy {
            draft_depth: 4,
            top_k: 1,
            tokens_to_verify: 4,
        };
        let mut rng = StdRng::seed_from_u64(21);
        let (_, untrained_accept) = measure_acceptance(
            &target,
            &SpecDrafter::Learned(&untrained),
            &prompts,
            20,
            strategy,
            params,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(21);
        let (_, trained_accept) = measure_acceptance(
            &target,
            &SpecDrafter::Learned(&trainer.drafter),
            &prompts,
            20,
            strategy,
            params,
            &mut rng,
        );
        assert!(
            trained_accept > untrained_accept,
            "training should raise accept length: {untrained_accept:.2} -> {trained_accept:.2}"
        );
    }

    #[test]
    fn accept_rate_by_position_is_monotone_non_increasing_for_untrained() {
        let (target, drafter) = setup();
        let prompts: Vec<Vec<TokenId>> = (0..4u32).map(|i| vec![i + 1, 2, 3]).collect();
        let mut rng = StdRng::seed_from_u64(31);
        let (rates, _) = measure_acceptance(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompts,
            16,
            SdStrategy {
                draft_depth: 5,
                top_k: 1,
                tokens_to_verify: 5,
            },
            SamplingParams::greedy(),
            &mut rng,
        );
        assert_eq!(rates.len(), 5);
        // Later positions can only be attempted after earlier acceptances, so the
        // measured rates are a valid per-position profile (all within [0, 1]).
        for r in rates {
            assert!((0.0..=1.0).contains(&r));
        }
    }
}

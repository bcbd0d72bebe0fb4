//! Token-level speculative decoding with lossless verification.
//!
//! This module runs real speculative decoding against the tiny target model: a
//! learned EAGLE-style drafter proposes a chain of tokens, the target verifies
//! them in one forward pass, and the standard rejection-sampling rule (Leviathan
//! et al.) accepts a prefix and resamples at the first mismatch — guaranteeing
//! that the output distribution is *identical* to vanilla decoding, which is the
//! paper's core "lossless" requirement.
//!
//! Tree drafting and batched verification are modelled analytically for the
//! timing-level simulations (see `tlt_draft::AcceptanceProfile` and
//! [`crate::sim_engine`]); the token-level engine here uses chain drafting, which is
//! sufficient to measure acceptance behaviour and to property-test losslessness.
//!
//! TLT-Base's model-free n-gram drafter is timing-level only (its `AcceptanceProfile`,
//! [`crate::DrafterChoice::ModelFree`]): on the random-init tiny model an n-gram drafter
//! fed each group's earlier responses kept a mean accept length of 1.000-1.014.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlt_draft::{DraftModel, DraftScratch, DraftState};
use tlt_model::{
    probs_from_logits_into, sample_from_probs, sample_from_residual, DecodeWorkspace, Mat,
    SamplingParams, TinyLm, TokenId,
};

/// A speculative-decoding configuration tuple — the "arm" of the BEG-MAB tuner.
/// The token-level engine drafts a chain of `draft_depth` tokens (at least one);
/// the timing-level acceptance and cost models read all three fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SdStrategy {
    /// Number of sequential drafter steps per speculative round.
    pub draft_depth: usize,
    /// Tree top-K (branching factor) of tree drafting; timing-level models only.
    pub top_k: usize,
    /// Drafted tree tokens the target verifies; timing-level models only.
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

/// Which drafter proposes tokens. One variant, because TLT-Base's model-free
/// drafter is modelled at the timing level only (see the module doc).
#[derive(Debug)]
pub enum SpecDrafter<'a> {
    /// Learned EAGLE-style drafter (must use
    /// [`tlt_draft::FeatureSource::LastLayer`]; [`DraftModel::resume_draft`]
    /// rejects any other).
    Learned(&'a DraftModel),
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
    let mut probs = Vec::with_capacity(target.config.vocab_size);
    let mut tokens = Vec::new();
    let mut trunk = Mat::zeros(0, target.config.hidden);
    for i in 0..max_new {
        // The last logits row: the prompt's final position, then each decoded token.
        let last_row = ws.logits().rows() - 1;
        probs_from_logits_into(ws.logits().row(last_row), params, &mut probs);
        let next = sample_from_probs(&probs, rng) as TokenId;
        tokens.push(next);
        // The last token's logits are never sampled from, so it is not decoded.
        if Some(next) == eos || i + 1 == max_new || cache.seq_len() + 1 >= target.config.max_seq_len
        {
            break;
        }
        target.decode_step(next, &mut cache, &mut ws);
        trunk.extend_rows_range(ws.trunk_out(), 0, 1);
    }
    GenerationResult {
        target_steps: tokens.len(), // the prefill, then one decode step per token
        tokens,
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
/// Panics if the prompt is empty or the drafter has a multi-layer feature source
/// (the token-level engine supports last-layer drafters) and drafts a round.
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
/// between speculative rounds. The swap empties only the *drafter's* state, which
/// the incoming drafter re-primes from the committed features; the target-side
/// verification is untouched, so the rejection-sampling rule keeps the output
/// distribution bit-identical to vanilla decoding no matter when — or how
/// often — the drafter changes.
///
/// # Panics
///
/// Panics if the prompt or schedule is empty, or if a drafter that drafts a
/// round has a multi-layer feature source ([`DraftModel::resume_draft`]).
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
    let depth = chain_depth(strategy);

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

    // Per-segment drafter bookkeeping: the drafting state starts empty and is
    // emptied whenever the active drafter changes, so the drafter in charge
    // primes its own KV from the committed features on its first round. Every
    // drafter is last-layer, so one scratch fits them all.
    let mut segment = 0usize;
    let mut rounds_in_segment = 0usize;
    let mut draft_scratch = DraftScratch::new(target);
    let mut draft_state = DraftState::new(target);
    // Committed tokens, one per row of `features`.
    let mut all_tokens: Vec<TokenId> = prompt.to_vec();

    // Sample the first generated token from the prompt's final distribution; it
    // becomes the "pending" token (committed but not yet in the target KV cache).
    let mut probs = Vec::with_capacity(target.config.vocab_size);
    probs_from_logits_into(ws.logits().row(ws.logits().rows() - 1), params, &mut probs);
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
        // next drafter takes over with an empty drafter-side state.
        if segment + 1 < schedule.len() && rounds_in_segment >= schedule[segment].0 {
            segment += 1;
            rounds_in_segment = 0;
            draft_state = DraftState::new(target);
        }
        let SpecDrafter::Learned(model) = schedule[segment].1;
        rounds_in_segment += 1;
        // Budget left, bounded by the model's positional table.
        let room = target
            .config
            .max_seq_len
            .saturating_sub(cache.seq_len() + 1)
            .min(max_new - generated.len());
        if room == 0 {
            break;
        }
        let draft_len = depth.min(room.saturating_sub(1));
        while draft_dists.len() < draft_len {
            draft_dists.push(Vec::with_capacity(target.config.vocab_size));
        }

        // --- Drafting stage ---
        // Prime only the newly committed positions; KV entries for older
        // positions are bit-identical across rounds.
        draft_tokens.clear();
        model.resume_draft(
            target,
            &features,
            &all_tokens,
            &mut draft_state,
            &mut draft_scratch,
        );
        let mut last = pending;
        for dist in draft_dists.iter_mut().take(draft_len) {
            let logits = model.draft_step_into(target, &mut draft_state, last, &mut draft_scratch);
            probs_from_logits_into(logits, params, dist);
            let tok = sample_from_probs(dist, rng) as TokenId;
            draft_tokens.push(tok);
            last = tok;
        }

        // --- Verification stage: target processes [pending, d_1, ..., d_k] at once ---
        block.clear();
        block.push(pending);
        block.extend_from_slice(&draft_tokens);
        let pre_verify_len = cache.seq_len();
        target.forward_into(&block, &mut cache, &mut ws);
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
        cache.truncate(pre_verify_len + committed_in_block);
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

/// Tokens the engine drafts per speculative round under `strategy`: its
/// `draft_depth`, and at least one.
fn chain_depth(strategy: SdStrategy) -> usize {
    strategy.draft_depth.max(1)
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
    let depth = chain_depth(strategy);
    let mut attempts = vec![0usize; depth];
    let mut accepted = vec![0usize; depth];
    let mut accept_len_sum = 0.0;
    let mut accept_len_count = 0usize;
    for prompt in prompts {
        let result = speculative_generate(
            target, drafter, prompt, max_new, strategy, params, None, rng,
        );
        for i in 0..depth {
            attempts[i] += result.position_attempts[i];
            accepted[i] += result.position_accepted[i];
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
    use tlt_draft::FeatureSource;
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
        // single output token. Exercise learned->learned swaps at several swap
        // points.
        let (target, drafter_a) = setup();
        let drafter_b = DraftModel::new(&target, FeatureSource::LastLayer, 77);
        let params = SamplingParams::greedy();
        let prompt: Vec<TokenId> = vec![1, 5, 9, 2];
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, 28, params, None, &mut rng);
        let spec_a = SpecDrafter::Learned(&drafter_a);
        let spec_b = SpecDrafter::Learned(&drafter_b);
        let schedules: Vec<Vec<(usize, &SpecDrafter)>> = vec![
            vec![(2, &spec_a), (usize::MAX, &spec_b)],
            vec![(1, &spec_a), (1, &spec_b), (usize::MAX, &spec_a)],
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
    fn depth_zero_measures_the_one_position_the_engine_drafts() {
        // The engine drafts at least one token a round, so depth 0 measures
        // position 0, exactly as depth 1 does.
        let (target, drafter) = setup();
        let prompts: Vec<Vec<TokenId>> = (0..3u32).map(|i| vec![i + 1, 2, 3]).collect();
        let measure = |draft_depth| {
            let strategy = SdStrategy {
                draft_depth,
                top_k: 1,
                tokens_to_verify: 1,
            };
            let mut rng = StdRng::seed_from_u64(5);
            let spec = SpecDrafter::Learned(&drafter);
            measure_acceptance(
                &target,
                &spec,
                &prompts,
                12,
                strategy,
                SamplingParams::greedy(),
                &mut rng,
            )
        };
        let (rates, accept) = measure(0);
        assert_eq!(rates.len(), 1);
        assert_eq!((rates, accept), measure(1));
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

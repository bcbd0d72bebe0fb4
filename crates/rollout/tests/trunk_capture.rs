//! `GenerationResult::trunk` is the frozen trunk the policy update would
//! otherwise recompute: row `i` is `trunk_forward(prompt ++ tokens[..n - 1])`
//! at position `prompt.len() + i`, `to_bits`-equal, for every generator and
//! every way a response can end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_draft::{DraftModel, DrafterTrainer, FeatureSource, TrainerConfig, TrainingSample};
use tlt_model::{ModelConfig, SamplingParams, TinyLm, TokenId};
use tlt_rollout::{
    speculative_generate, speculative_generate_with_swap, vanilla_generate, GenerationResult,
    SdStrategy, SpecDrafter,
};

const SAMPLED: SamplingParams = SamplingParams {
    temperature: 0.9,
    top_k: None,
};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Holds `result.trunk` to the trunk recomputed over the whole sequence.
fn assert_trunk_is_recomputed_trunk(
    target: &TinyLm,
    prompt: &[TokenId],
    result: &GenerationResult,
) {
    let n = result.tokens.len();
    assert_eq!(
        result.trunk.shape(),
        (n.saturating_sub(1), target.config.hidden),
        "one row per response token but the last"
    );
    if n < 2 {
        return;
    }
    let mut sequence = prompt.to_vec();
    sequence.extend_from_slice(&result.tokens[..n - 1]);
    let recomputed = target.trunk_forward(&sequence);
    let expected = recomputed.slice_rows(prompt.len(), sequence.len());
    assert_eq!(
        bits(result.trunk.as_slice()),
        bits(expected.as_slice()),
        "captured trunk differs from trunk_forward (prompt {prompt:?})"
    );
}

fn prompt(seed: u32, len: u32) -> Vec<TokenId> {
    (0..len).map(|i| 1 + (seed * 5 + i * 3) % 29).collect()
}

fn setup() -> (TinyLm, DraftModel) {
    let target = TinyLm::new(ModelConfig::micro(), 40);
    let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 4);
    (target, drafter)
}

#[test]
fn vanilla_trunk_is_the_recomputed_trunk_at_eos_max_new_and_the_context_limit() {
    let (target, _) = setup();
    let eos = 3;
    let mut ended_by_eos = 0;
    for seed in 0..12u32 {
        let p = prompt(seed, 4);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let result = vanilla_generate(&target, &p, 40, SAMPLED, Some(eos), &mut rng);
        ended_by_eos += usize::from(result.tokens.len() < 40);
        assert_trunk_is_recomputed_trunk(&target, &p, &result);
    }
    assert!(ended_by_eos > 0, "no response ended at EOS");
    // Budget of one token (no decode step at all) and of zero.
    for max_new in [0, 1] {
        let p = prompt(1, 4);
        let result = vanilla_generate(
            &target,
            &p,
            max_new,
            SAMPLED,
            None,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(result.tokens.len(), max_new);
        assert_trunk_is_recomputed_trunk(&target, &p, &result);
    }
    // The positional table ends first.
    let p = prompt(2, 100);
    let result = vanilla_generate(
        &target,
        &p,
        64,
        SAMPLED,
        None,
        &mut StdRng::seed_from_u64(2),
    );
    assert_eq!(p.len() + result.tokens.len(), target.config.max_seq_len);
    assert_trunk_is_recomputed_trunk(&target, &p, &result);
}

#[test]
fn speculative_trunk_is_the_recomputed_trunk_through_rejections_and_greedy() {
    let (target, drafter) = setup();
    let spec = SpecDrafter::Learned(&drafter);
    let mut rejected_rounds = 0;
    for (params, max_new) in [(SAMPLED, 40), (SamplingParams::greedy(), 40), (SAMPLED, 7)] {
        for seed in 0..6u32 {
            let p = prompt(seed, 5);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let strategy = SdStrategy::default();
            let result = speculative_generate(
                &target,
                &spec,
                &p,
                max_new,
                strategy,
                params,
                Some(3),
                &mut rng,
            );
            rejected_rounds += result
                .accept_lengths
                .iter()
                .filter(|&&a| a <= strategy.draft_depth)
                .count();
            assert_trunk_is_recomputed_trunk(&target, &p, &result);
        }
    }
    assert!(rejected_rounds > 0, "no round ended in a rejection");
    // The positional table ends first.
    let p = prompt(3, 100);
    let result = speculative_generate(
        &target,
        &spec,
        &p,
        64,
        SdStrategy::default(),
        SAMPLED,
        None,
        &mut StdRng::seed_from_u64(3),
    );
    assert_eq!(p.len() + result.tokens.len(), target.config.max_seq_len);
    assert_trunk_is_recomputed_trunk(&target, &p, &result);
}

#[test]
fn speculative_trunk_drops_the_rows_an_eos_inside_a_block_cut_off() {
    // A drafter trained on the greedy continuation drafts long runs of it, so
    // an EOS placed inside it lands among a round's accepted drafts.
    let (target, _) = setup();
    let p = prompt(4, 4);
    let greedy = SamplingParams::greedy();
    let mut rng = StdRng::seed_from_u64(0);
    let vanilla = vanilla_generate(&target, &p, 30, greedy, None, &mut rng);
    let mut sequence = p.clone();
    sequence.extend_from_slice(&vanilla.tokens);
    let sample = TrainingSample::from_rollout(
        &target,
        FeatureSource::LastLayer,
        &sequence,
        vanilla.tokens.len(),
        0,
        0,
    );
    let mut trainer = DrafterTrainer::new(&target, TrainerConfig::default(), 8);
    for _ in 0..20 {
        trainer.train_iteration(&target, &[&sample]);
    }
    let spec = SpecDrafter::Learned(&trainer.drafter);
    let mut cut_inside_a_block = 0;
    for eos_at in 1..vanilla.tokens.len() {
        let eos = vanilla.tokens[eos_at];
        let mut rng = StdRng::seed_from_u64(1);
        let result = speculative_generate(
            &target,
            &spec,
            &p,
            30,
            SdStrategy::default(),
            greedy,
            Some(eos),
            &mut rng,
        );
        let committed: usize = result.accept_lengths.iter().sum();
        // Every round commits its block and then pushes one more token; fewer
        // tokens than that means the cut fell inside the last block.
        cut_inside_a_block += usize::from(result.tokens.len() < committed + 1);
        assert_trunk_is_recomputed_trunk(&target, &p, &result);
    }
    assert!(
        cut_inside_a_block > 0,
        "no EOS fell inside a verified block"
    );
}

#[test]
fn swapped_drafter_trunk_is_the_recomputed_trunk() {
    let (target, drafter_a) = setup();
    let drafter_b = DraftModel::new(&target, FeatureSource::LastLayer, 77);
    let (spec_a, spec_b) = (
        SpecDrafter::Learned(&drafter_a),
        SpecDrafter::Learned(&drafter_b),
    );
    for seed in 0..4u32 {
        let p = prompt(seed, 4);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let result = speculative_generate_with_swap(
            &target,
            &[(2, &spec_a), (usize::MAX, &spec_b)],
            &p,
            32,
            SdStrategy::default(),
            SAMPLED,
            None,
            &mut rng,
        );
        assert!(result.accept_lengths.len() > 2, "the swap never happened");
        assert_trunk_is_recomputed_trunk(&target, &p, &result);
    }
}

//! Property-based losslessness tests: the core guarantee of the paper is that
//! speculative decoding never changes the output distribution of the target model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_draft::{DraftModel, FeatureSource};
use tlt_model::{ModelConfig, SamplingParams, TinyLm};
use tlt_rollout::{
    speculative_generate, speculative_generate_with_swap, vanilla_generate, SdStrategy, SpecDrafter,
};
use tlt_workload::TaskGenerator;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Greedy speculative decoding with a learned drafter emits exactly the vanilla
    /// sequence for arbitrary prompts, drafter seeds and draft depths.
    #[test]
    fn greedy_speculative_equals_vanilla(
        prompt in proptest::collection::vec(0u32..32, 1..6),
        drafter_seed in 0u64..50,
        depth in 1usize..8,
        max_new in 1usize..40,
    ) {
        let target = TinyLm::new(ModelConfig::micro(), 1234);
        let drafter = DraftModel::new(&target, FeatureSource::LastLayer, drafter_seed);
        let params = SamplingParams::greedy();
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, max_new, params, None, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let strategy = SdStrategy { draft_depth: depth, top_k: 1, tokens_to_verify: depth };
        let spec = speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            max_new,
            strategy,
            params,
            None,
            &mut rng,
        );
        prop_assert_eq!(spec.tokens, vanilla.tokens);
    }

    /// Swapping the drafter mid-generation — the chaos harness's checkpoint
    /// adoption / last-good fallback path — never changes a single output token
    /// under greedy decoding, for arbitrary prompts, drafter pairs and swap
    /// points.
    #[test]
    fn greedy_speculative_equals_vanilla_across_a_mid_run_drafter_swap(
        prompt in proptest::collection::vec(0u32..32, 1..6),
        seed_a in 0u64..40,
        seed_b in 40u64..80,
        swap_after in 1usize..5,
        max_new in 8usize..40,
    ) {
        let target = TinyLm::new(ModelConfig::micro(), 1234);
        let drafter_a = DraftModel::new(&target, FeatureSource::LastLayer, seed_a);
        let drafter_b = DraftModel::new(&target, FeatureSource::LastLayer, seed_b);
        let params = SamplingParams::greedy();
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, max_new, params, None, &mut rng);
        let spec_a = SpecDrafter::Learned(&drafter_a);
        let spec_b = SpecDrafter::Learned(&drafter_b);
        let mut rng = StdRng::seed_from_u64(1);
        let swapped = speculative_generate_with_swap(
            &target,
            &[(swap_after, &spec_a), (usize::MAX, &spec_b)],
            &prompt,
            max_new,
            SdStrategy { draft_depth: 4, top_k: 1, tokens_to_verify: 4 },
            params,
            None,
            &mut rng,
        );
        prop_assert_eq!(swapped.tokens, vanilla.tokens);
    }

    /// Rewards computed on speculative rollouts equal rewards computed on vanilla
    /// rollouts under greedy decoding: RL sees exactly the same learning signal.
    #[test]
    fn rewards_identical_under_greedy_rollouts(task_seed in 0u64..100) {
        let target = TinyLm::new(ModelConfig::micro(), 77);
        let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 7);
        let mut task_gen = TaskGenerator::new(target.config.vocab_size);
        let mut task_rng = StdRng::seed_from_u64(task_seed);
        let task = task_gen.generate(&mut task_rng);
        let prompt = task.prompt_tokens();
        let params = SamplingParams::greedy();
        let mut rng = StdRng::seed_from_u64(0);
        let vanilla = vanilla_generate(&target, &prompt, 24, params, Some(task.vocab.eos()), &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let spec = speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            24,
            SdStrategy { draft_depth: 4, top_k: 1, tokens_to_verify: 4 },
            params,
            Some(task.vocab.eos()),
            &mut rng,
        );
        prop_assert_eq!(task.reward(&vanilla.tokens), task.reward(&spec.tokens));
    }
}

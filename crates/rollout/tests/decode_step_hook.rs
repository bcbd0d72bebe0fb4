//! The `model.decode_steps` counter counts what a vanilla generation does.
//!
//! The hooks are process-wide atomics, so this is the only test in its binary:
//! nothing else can bump the counter while it is being read.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_model::{ModelConfig, SamplingParams, TinyLm};
use tlt_rollout::vanilla_generate;

#[test]
fn vanilla_generation_counts_one_decode_step_per_token_after_the_first() {
    let target = TinyLm::new(ModelConfig::micro(), 40);
    tlt_obs::hooks::enable();
    // Runs that stop at the token budget, at EOS, and at the context window.
    for (prompt_len, max_new, eos) in [(4, 24, None), (4, 64, Some(3)), (100, 64, None)] {
        let prompt: Vec<u32> = (0..prompt_len).map(|i| 1 + i % 7).collect();
        tlt_obs::hooks::reset();
        let result = vanilla_generate(
            &target,
            &prompt,
            max_new,
            SamplingParams::rollout(),
            eos,
            &mut StdRng::seed_from_u64(5),
        );
        let counters = tlt_obs::hooks::snapshot();
        assert_eq!(result.target_steps, result.tokens.len());
        assert_eq!(
            counters.decode_steps as usize,
            result.target_steps - 1,
            "prompt {prompt_len}, budget {max_new}, eos {eos:?}: the first token comes from \
             the prefill, every later one from one decode step"
        );
    }
    tlt_obs::hooks::disable();
}

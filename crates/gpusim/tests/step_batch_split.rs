//! The batch / context split of a step's cost is the unsplit formula, bit for bit.
//!
//! `reference_time` transcribes the path `decode_step_time` / `verify_step_time`
//! took before the split — kernel work from the model geometry, `estimate_time`,
//! plus the tensor-parallel all-reduces — and never touches [`StepBatch`].

use tlt_gpusim::{estimate_time, GpuType, KernelWork, LlmCostModel};
use tlt_model::spec::BF16_BYTES;
use tlt_model::ModelSpec;

fn reference_time(cost: &LlmCostModel, batch: usize, tokens_per_seq: usize, context: usize) -> f64 {
    let (model, tp) = (&cost.model, cost.tp as f64);
    let tokens = (batch * tokens_per_seq) as f64;
    let flops = model.flops_per_token() * tokens / tp;
    let bytes = model.weight_bytes() / tp
        + model.kv_bytes_per_token() * batch as f64 * context as f64 / tp
        + tokens * model.hidden as f64 * BF16_BYTES;
    let launches = (model.num_layers * 8 + 4) as f64;
    let comm_s = if cost.tp <= 1 || cost.gpu.nvlink_gbps <= 0.0 {
        0.0
    } else {
        let bytes = 2.0 * model.num_layers as f64 * model.hidden as f64 * BF16_BYTES * tokens;
        bytes * 2.0 * (tp - 1.0) / tp / (cost.gpu.nvlink_gbps * 1e9)
    };
    estimate_time(
        KernelWork::new(flops, bytes, launches),
        &cost.gpu,
        cost.mode,
    )
    .total_s
        + comm_s
}

#[test]
fn split_step_times_equal_the_unsplit_formula_bitwise() {
    let mut models = ModelSpec::paper_targets();
    models.extend([ModelSpec::llama3_8b(), ModelSpec::qwen2_5_0_5b()]);
    // The RTX 4090 has no NVLink: its all-reduce term is zero at every tp.
    let gpus = [GpuType::H100, GpuType::A100, GpuType::Rtx4090];
    assert_eq!(GpuType::Rtx4090.spec().nvlink_gbps, 0.0);
    let mut compared = 0u64;
    for model in &models {
        for gpu in gpus {
            for tp in [1, 2, 4, 8] {
                let graph = LlmCostModel::new(model.clone(), gpu.spec(), tp);
                let mut eager = graph.clone();
                eager.mode.cuda_graph = false;
                for cost in [graph, eager] {
                    let drafter = model.eagle_drafter();
                    for batch in (1..=64).chain([128, 512]) {
                        let decode = cost.decode_batch(batch);
                        let verify = cost.verify_batch(batch, 48);
                        let speculative = cost.speculative_batch(&drafter, batch, 6, 48);
                        let draft_s = cost.drafter_step_time(&drafter, batch) * 6.0;
                        for context in [0, 1, 511, 4096, 33_280] {
                            let want = reference_time(&cost, batch, 1, context);
                            assert_eq!(decode.time(context).to_bits(), want.to_bits());
                            assert_eq!(
                                cost.decode_step_time(batch, context).to_bits(),
                                want.to_bits()
                            );
                            let want = reference_time(&cost, batch, 48, context);
                            assert_eq!(verify.time(context).to_bits(), want.to_bits());
                            assert_eq!(
                                speculative.time(context).to_bits(),
                                (draft_s + want).to_bits(),
                                "{} on {gpu:?} tp {tp} batch {batch} context {context}",
                                model.name
                            );
                            compared += 4;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 6 * 3 * 4 * 2 * 66 * 5 * 4);
}

/// The regime boundary is the roofline's: the pass is compute-bound
/// (`TimeBreakdown::is_compute_bound`) one context below it and memory-bound at
/// it; and a run's summed time is the sum of the per-step times up to
/// summation order.
#[test]
fn run_time_sums_the_step_times_on_both_sides_of_the_crossover() {
    let mut crossings = 0;
    for model in ModelSpec::paper_targets() {
        for gpu in [GpuType::H100, GpuType::A100] {
            for tp in [1, 4, 8] {
                let cost = LlmCostModel::new(model.clone(), gpu.spec(), tp);
                let drafter = model.eagle_drafter();
                for batch in [1, 8, 32, 256, 1024] {
                    for pass in [
                        cost.decode_batch(batch),
                        cost.speculative_batch(&drafter, batch, 6, 48),
                    ] {
                        let from = pass.memory_bound_from();
                        if from == usize::MAX {
                            continue;
                        }
                        let bound = |context| {
                            estimate_time(pass.work(context), &cost.gpu, cost.mode)
                                .is_compute_bound()
                        };
                        assert!(!bound(from), "{from}");
                        if from > 0 {
                            assert!(bound(from - 1), "{from}");
                            // Compute-bound steps all take one time.
                            assert_eq!(pass.time(from - 1).to_bits(), pass.time(0).to_bits());
                        }
                        // Contexts `from - 40 .. from + 60`, one a step.
                        let start = from.saturating_sub(40);
                        crossings += usize::from(start < from);
                        let (mut sum, mut memory_steps, mut contexts) = (0.0, 0u64, 0u128);
                        for (steps, context) in (start..from + 60).enumerate() {
                            sum += pass.time(context);
                            if context >= from {
                                memory_steps += 1;
                                contexts += context as u128;
                            }
                            let run = pass.run_time(steps as u64 + 1, memory_steps, contexts);
                            assert!(((run - sum) / sum).abs() < 1e-14, "{run} vs {sum}");
                        }
                    }
                }
            }
        }
    }
    assert!(crossings > 20, "{crossings} runs crossed over");
}

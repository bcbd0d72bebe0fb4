//! LLM execution cost model built on the roofline.
//!
//! Maps the phases of a reasoning-RL step — prefill, autoregressive decode,
//! speculative drafting + verification, response re-prefill (the "inference" stage),
//! and training — onto [`KernelWork`] descriptors for a given model geometry, GPU
//! type and tensor-parallel degree, and converts them to time via the roofline.

use crate::roofline::{estimate_time, peak_bandwidth, ExecutionMode, KernelWork, TimeBreakdown};
use crate::specs::GpuSpec;
use serde::Serialize;
use tlt_model::spec::{DraftModelSpec, ModelSpec, BF16_BYTES};

/// Activation-workspace scale factor used by the CUDAGraph capture memory model:
/// bytes of persistent workspace per captured token ≈
/// `hidden * num_layers * ACTIVATION_FACTOR * 2 / tp`.
pub const ACTIVATION_FACTOR: f64 = 8.0;

/// Fixed per-graph overhead (instantiation metadata, pool fragmentation) in bytes.
pub const GRAPH_FIXED_BYTES: f64 = 200.0 * 1024.0 * 1024.0;

/// Host-side overhead of one drafter step (tree construction, candidate sampling,
/// token bookkeeping). It is independent of the GPU, which is why speculative
/// decoding yields a *smaller* relative speedup on faster GPUs (Table 2's trend).
pub const DRAFT_STEP_HOST_OVERHEAD_S: f64 = 60e-6;

/// The batch-only half of a decode, verification or speculative step: every term
/// of its work and time that does not depend on the mean context, so a run of
/// steps over an unchanged batch builds it once and pays [`StepBatch::time`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBatch {
    /// Sequences in the batch this half was built for.
    pub batch: usize,
    flops: f64,
    launches: f64,
    weight_bytes: f64,
    /// KV bytes per position of mean context, before the split over `tp`.
    kv_bytes_per_position: f64,
    tp: f64,
    activation_bytes: f64,
    peak_bandwidth: f64,
    compute_s: f64,
    launch_s: f64,
    comm_s: f64,
    /// Sequential drafter steps ahead of the target pass (`0.0` without drafting).
    draft_s: f64,
}

impl StepBatch {
    /// Kernel work of the target pass at mean context `context`.
    pub fn work(&self, context: usize) -> KernelWork {
        let bytes = self.weight_bytes
            + self.kv_bytes_per_position * context as f64 / self.tp
            + self.activation_bytes;
        KernelWork::new(self.flops, bytes, self.launches)
    }

    /// Time of the step at mean context `context`: drafting, the roofline total of
    /// the target pass and its tensor-parallel all-reduces. A pass takes positive
    /// time, so the `0.0` of a step without drafting leaves its bits alone.
    pub fn time(&self, context: usize) -> f64 {
        let memory_s = self.work(context).bytes / self.peak_bandwidth;
        self.draft_s + (self.compute_s.max(memory_s) + self.launch_s + self.comm_s)
    }
}

/// Cost model for one model replica running on one tensor-parallel worker.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LlmCostModel {
    /// Target-model geometry.
    pub model: ModelSpec,
    /// GPU the replica runs on.
    pub gpu: GpuSpec,
    /// Tensor-parallel degree (GPUs per replica).
    pub tp: usize,
    /// Execution mode (CUDAGraph on/off, efficiencies).
    pub mode: ExecutionMode,
}

impl LlmCostModel {
    /// Creates a cost model.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn new(model: ModelSpec, gpu: GpuSpec, tp: usize) -> Self {
        assert!(tp > 0, "tensor-parallel degree must be positive");
        LlmCostModel {
            model,
            gpu,
            tp,
            mode: ExecutionMode::default(),
        }
    }

    /// Uses eager (non-CUDAGraph) execution.
    pub fn with_eager_mode(mut self) -> Self {
        self.mode = ExecutionMode::eager();
        self
    }

    /// Weight bytes resident per GPU.
    pub fn weight_bytes_per_gpu(&self) -> f64 {
        self.model.weight_bytes() / self.tp as f64
    }

    /// Tensor-parallel all-reduce traffic time for `tokens` token positions.
    fn tp_comm_seconds(&self, tokens: f64) -> f64 {
        if self.tp <= 1 || self.gpu.nvlink_gbps <= 0.0 {
            return 0.0;
        }
        // Two all-reduces per layer, each moving ~hidden activations per token.
        let bytes =
            2.0 * self.model.num_layers as f64 * self.model.hidden as f64 * BF16_BYTES * tokens;
        let per_gpu = bytes * 2.0 * (self.tp as f64 - 1.0) / self.tp as f64;
        per_gpu / (self.gpu.nvlink_gbps * 1e9)
    }

    /// The batch-only half of one decode step producing one token per sequence.
    pub fn decode_batch(&self, batch: usize) -> StepBatch {
        self.verify_batch(batch, 1)
    }

    /// The batch-only half of verifying `tokens_per_seq` drafted tokens for every
    /// sequence in the batch in a single target forward pass.
    pub fn verify_batch(&self, batch: usize, tokens_per_seq: usize) -> StepBatch {
        let tokens = (batch * tokens_per_seq) as f64;
        let flops = self.model.flops_per_token() * tokens / self.tp as f64;
        // ~8 kernels per layer plus head/embedding.
        let launches = (self.model.num_layers * 8 + 4) as f64;
        let open = estimate_time(KernelWork::new(flops, 0.0, launches), &self.gpu, self.mode);
        StepBatch {
            batch,
            flops,
            launches,
            weight_bytes: self.weight_bytes_per_gpu(),
            kv_bytes_per_position: self.model.kv_bytes_per_token() * batch as f64,
            tp: self.tp as f64,
            activation_bytes: tokens * self.model.hidden as f64 * BF16_BYTES,
            peak_bandwidth: peak_bandwidth(&self.gpu, self.mode),
            compute_s: open.compute_s,
            launch_s: open.launch_s,
            comm_s: self.tp_comm_seconds(tokens),
            draft_s: 0.0,
        }
    }

    /// Kernel work of one decode step producing one token per sequence.
    pub fn decode_work(&self, batch: usize, context: usize) -> KernelWork {
        self.decode_batch(batch).work(context)
    }

    /// Time of one decode step.
    pub fn decode_step_time(&self, batch: usize, context: usize) -> f64 {
        self.decode_batch(batch).time(context)
    }

    /// Kernel work of verifying `tokens_per_seq` drafted tokens for every sequence in
    /// the batch in a single target forward pass.
    pub fn verify_work(&self, batch: usize, tokens_per_seq: usize, context: usize) -> KernelWork {
        self.verify_batch(batch, tokens_per_seq).work(context)
    }

    /// Time of one verification pass.
    pub fn verify_step_time(&self, batch: usize, tokens_per_seq: usize, context: usize) -> f64 {
        self.verify_batch(batch, tokens_per_seq).time(context)
    }

    /// Detailed breakdown for a verification pass (used by roofline figures).
    pub fn verify_breakdown(
        &self,
        batch: usize,
        tokens_per_seq: usize,
        context: usize,
    ) -> TimeBreakdown {
        estimate_time(
            self.verify_work(batch, tokens_per_seq, context),
            &self.gpu,
            self.mode,
        )
    }

    /// Kernel work of prefilling `prompt_len` tokens for `batch` sequences.
    pub fn prefill_work(&self, batch: usize, prompt_len: usize) -> KernelWork {
        let tokens = (batch * prompt_len) as f64;
        let flops = self.model.flops_per_token() * tokens / self.tp as f64;
        let bytes = self.weight_bytes_per_gpu()
            + tokens * self.model.kv_bytes_per_token() / self.tp as f64
            + tokens * self.model.hidden as f64 * BF16_BYTES;
        let launches = (self.model.num_layers * 8 + 4) as f64;
        KernelWork::new(flops, bytes, launches)
    }

    /// Time to prefill a batch of prompts.
    pub fn prefill_time(&self, batch: usize, prompt_len: usize) -> f64 {
        let base = estimate_time(self.prefill_work(batch, prompt_len), &self.gpu, self.mode);
        base.total_s + self.tp_comm_seconds((batch * prompt_len) as f64)
    }

    /// Kernel work of prefilling only the `novel_len` tokens not already
    /// resident in the KV cache, attending over `cached_len` reused positions.
    ///
    /// Compute (FLOPs, KV writes, activations, launches) is charged for the
    /// novel tokens alone — the paged prefix cache means reused tokens are
    /// never recomputed — while the cached context costs one read of its KV
    /// bytes (the attention of every novel token walks the shared blocks).
    /// With `cached_len == 0` this is exactly [`LlmCostModel::prefill_work`].
    pub fn prefill_work_cached(
        &self,
        batch: usize,
        novel_len: usize,
        cached_len: usize,
    ) -> KernelWork {
        let tokens = (batch * novel_len) as f64;
        let flops = self.model.flops_per_token() * tokens / self.tp as f64;
        let bytes = self.weight_bytes_per_gpu()
            + tokens * self.model.kv_bytes_per_token() / self.tp as f64
            + (batch * cached_len) as f64 * self.model.kv_bytes_per_token() / self.tp as f64
            + tokens * self.model.hidden as f64 * BF16_BYTES;
        let launches = (self.model.num_layers * 8 + 4) as f64;
        KernelWork::new(flops, bytes, launches)
    }

    /// Time to prefill `novel_len` novel tokens against `cached_len` reused
    /// KV positions. Equal to [`LlmCostModel::prefill_time`] when nothing is
    /// cached, and strictly cheaper than prefilling `novel_len + cached_len`
    /// tokens from scratch otherwise.
    pub fn prefill_time_cached(&self, batch: usize, novel_len: usize, cached_len: usize) -> f64 {
        let base = estimate_time(
            self.prefill_work_cached(batch, novel_len, cached_len),
            &self.gpu,
            self.mode,
        );
        base.total_s + self.tp_comm_seconds((batch * novel_len) as f64)
    }

    /// Kernel work of one drafter decode step (one drafted token per sequence),
    /// accounting for the drafter's (possibly multi-layer) sequential depth.
    pub fn drafter_decode_work(&self, drafter: &DraftModelSpec, batch: usize) -> KernelWork {
        let tokens = batch as f64;
        let flops = drafter.flops_per_token * tokens / self.tp as f64;
        let bytes =
            drafter.weight_bytes() / self.tp as f64 + tokens * drafter.hidden as f64 * BF16_BYTES;
        let launches = (drafter.num_layers * 8 + 4) as f64;
        KernelWork::new(flops, bytes, launches)
    }

    /// Time of one drafter decode step (GPU kernels plus host-side drafting overhead).
    pub fn drafter_step_time(&self, drafter: &DraftModelSpec, batch: usize) -> f64 {
        estimate_time(
            self.drafter_decode_work(drafter, batch),
            &self.gpu,
            self.mode,
        )
        .total_s
            + DRAFT_STEP_HOST_OVERHEAD_S
    }

    /// The batch-only half of a full speculative step: `draft_depth` sequential drafter
    /// steps followed by one target verification of `tokens_to_verify` tokens per sequence.
    pub fn speculative_batch(
        &self,
        drafter: &DraftModelSpec,
        batch: usize,
        draft_depth: usize,
        tokens_to_verify: usize,
    ) -> StepBatch {
        StepBatch {
            draft_s: self.drafter_step_time(drafter, batch) * draft_depth as f64,
            ..self.verify_batch(batch, tokens_to_verify)
        }
    }

    /// Time of a full speculative step at mean context `context`.
    pub fn speculative_step_time(
        &self,
        drafter: &DraftModelSpec,
        batch: usize,
        draft_depth: usize,
        tokens_to_verify: usize,
        context: usize,
    ) -> f64 {
        self.speculative_batch(drafter, batch, draft_depth, tokens_to_verify)
            .time(context)
    }

    /// Time of the RL "inference" stage: re-prefilling generated responses through the
    /// target and reference models to obtain logits for KL computation.
    pub fn inference_stage_time(&self, total_tokens: usize, replicas: usize) -> f64 {
        // Both target and reference model process every token once; work is spread
        // over `replicas` data-parallel workers.
        let tokens = total_tokens as f64 / replicas.max(1) as f64;
        let flops = 2.0 * self.model.flops_per_token() * tokens / self.tp as f64;
        let bytes = 2.0 * self.weight_bytes_per_gpu()
            + 2.0 * tokens * self.model.kv_bytes_per_token() / self.tp as f64;
        let work = KernelWork::new(flops, bytes, (self.model.num_layers * 16) as f64);
        estimate_time(work, &self.gpu, self.mode).total_s + self.tp_comm_seconds(2.0 * tokens)
    }

    /// Time of the RL training stage on `total_tokens` tokens spread over
    /// `num_gpus` GPUs (standard `6 * params * tokens` training-FLOPs estimate).
    pub fn training_stage_time(&self, total_tokens: usize, num_gpus: usize) -> f64 {
        let flops = 6.0 * self.model.params * total_tokens as f64 / num_gpus.max(1) as f64;
        // Optimizer states + gradients traffic, roughly 6x weight bytes per GPU.
        let bytes = 6.0 * self.model.weight_bytes() / num_gpus.max(1) as f64;
        let work = KernelWork::new(flops, bytes, (self.model.num_layers * 20) as f64);
        // Training runs in eager mode with a modestly lower efficiency.
        let mode = ExecutionMode {
            cuda_graph: false,
            compute_efficiency: 0.45,
            memory_efficiency: 0.8,
        };
        estimate_time(work, &self.gpu, mode).total_s
    }

    /// Time of one drafter training iteration on `tokens` packed tokens (per worker).
    pub fn drafter_train_step_time(&self, drafter: &DraftModelSpec, tokens: usize) -> f64 {
        let flops = 6.0 * drafter.params * tokens as f64 / self.tp as f64;
        let bytes = 6.0 * drafter.weight_bytes() / self.tp as f64;
        let work = KernelWork::new(flops, bytes, 200.0);
        let mode = ExecutionMode {
            cuda_graph: false,
            compute_efficiency: 0.45,
            memory_efficiency: 0.8,
        };
        estimate_time(work, &self.gpu, mode).total_s
    }

    /// Time to broadcast updated drafter weights to rollout workers.
    pub fn drafter_weight_update_time(&self, drafter: &DraftModelSpec) -> f64 {
        let bw = if self.gpu.nvlink_gbps > 0.0 {
            self.gpu.nvlink_gbps * 1e9
        } else {
            // PCIe fallback.
            25.0 * 1e9
        };
        drafter.weight_bytes() / bw
    }

    /// Persistent memory required to capture a CUDAGraph that executes `tokens`
    /// token positions for a batch of `batch` sequences of the *target* model.
    pub fn graph_capture_bytes(&self, batch: usize, tokens_per_seq: usize) -> f64 {
        let per_token = self.model.hidden as f64
            * self.model.num_layers as f64
            * ACTIVATION_FACTOR
            * BF16_BYTES
            / self.tp as f64;
        (batch * tokens_per_seq) as f64 * per_token + GRAPH_FIXED_BYTES
    }

    /// Persistent memory required to capture a drafter CUDAGraph.
    pub fn drafter_graph_capture_bytes(
        &self,
        drafter: &DraftModelSpec,
        batch: usize,
        tokens_per_seq: usize,
    ) -> f64 {
        let per_token =
            drafter.hidden as f64 * drafter.num_layers as f64 * ACTIVATION_FACTOR * BF16_BYTES
                / self.tp as f64;
        (batch * tokens_per_seq) as f64 * per_token + GRAPH_FIXED_BYTES / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::GpuType;

    fn qwen7b_h100() -> LlmCostModel {
        LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1)
    }

    fn qwen32b_h100_tp4() -> LlmCostModel {
        LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::H100.spec(), 4)
    }

    #[test]
    fn small_batch_decode_is_memory_bound() {
        let cost = qwen7b_h100();
        let work = cost.decode_work(1, 1024);
        let t = estimate_time(work, &cost.gpu, cost.mode);
        assert!(!t.is_compute_bound(), "bs=1 decode must be memory-bound");
    }

    #[test]
    fn large_verify_becomes_compute_bound() {
        let cost = qwen7b_h100();
        let work = cost.verify_work(64, 48, 1024);
        let t = estimate_time(work, &cost.gpu, cost.mode);
        assert!(
            t.is_compute_bound(),
            "large batched verification should be compute-bound"
        );
    }

    #[test]
    fn verify_only_slightly_slower_than_decode_at_bs1() {
        // The core SD win: verifying many tokens costs nearly the same as decoding
        // one token when memory-bound.
        let cost = qwen32b_h100_tp4();
        let decode = cost.decode_step_time(1, 4096);
        let verify = cost.verify_step_time(1, 48, 4096);
        assert!(verify < decode * 1.5, "verify {verify} vs decode {decode}");
    }

    #[test]
    fn decode_time_grows_sublinearly_then_linearly_with_batch() {
        let cost = qwen7b_h100();
        let t1 = cost.decode_step_time(1, 2048);
        let t32 = cost.decode_step_time(32, 2048);
        let t256 = cost.decode_step_time(256, 2048);
        // Memory-bound region: 32x batch costs much less than 32x time.
        assert!(t32 < t1 * 8.0);
        // But time is monotonically increasing.
        assert!(t256 > t32);
        assert!(t32 > t1);
    }

    #[test]
    fn eagle_drafter_step_much_faster_than_target_decode() {
        let cost = qwen32b_h100_tp4();
        let drafter = cost.model.eagle_drafter();
        let d = cost.drafter_step_time(&drafter, 1);
        let t = cost.decode_step_time(1, 4096);
        assert!(
            d * 10.0 < t,
            "drafter step {d} should be <10% of target step {t}"
        );
    }

    #[test]
    fn eagle_drafter_faster_than_small_lm_drafter() {
        // Paper: the single-layer drafter is ~2.4x faster than Qwen2.5-0.5B despite
        // similar parameter count, because latency is dominated by sequential layers.
        let cost = qwen32b_h100_tp4();
        let eagle = cost.model.eagle_drafter();
        let small = ModelSpec::small_lm_drafter(&ModelSpec::qwen2_5_0_5b());
        let t_eagle = cost.drafter_step_time(&eagle, 1);
        let t_small = cost.drafter_step_time(&small, 1);
        assert!(
            t_small > 1.5 * t_eagle,
            "small-LM drafter {t_small} should be much slower than EAGLE {t_eagle}"
        );
    }

    #[test]
    fn speculative_step_beats_sequential_decode_at_small_batch() {
        let cost = qwen32b_h100_tp4();
        let drafter = cost.model.eagle_drafter();
        // One speculative step (depth 6, verify 48) replaces ~6 accepted tokens.
        let spec = cost.speculative_step_time(&drafter, 1, 6, 48, 4096);
        let sequential = cost.decode_step_time(1, 4096) * 6.0;
        assert!(spec < sequential, "spec {spec} vs sequential {sequential}");
    }

    #[test]
    fn low_bandwidth_gpus_gain_more_from_speculation() {
        // Table 2's trend: the speedup of SD grows as the GPU becomes more
        // bandwidth-starved relative to compute.
        let spec = ModelSpec::qwen2_5_7b();
        let accept = 5.0; // tokens per speculative step
        let ratio = |gpu: GpuType| {
            let cost = LlmCostModel::new(spec.clone(), gpu.spec(), 1);
            let drafter = cost.model.eagle_drafter();
            let vanilla = cost.decode_step_time(1, 2048);
            let spec_step = cost.speculative_step_time(&drafter, 1, 6, 48, 2048);
            accept * vanilla / spec_step
        };
        let h100 = ratio(GpuType::H100);
        let a100 = ratio(GpuType::A100);
        let rtx3090 = ratio(GpuType::Rtx3090);
        assert!(rtx3090 > a100 * 0.95, "3090 {rtx3090} vs a100 {a100}");
        assert!(a100 > h100 * 0.8, "a100 {a100} vs h100 {h100}");
    }

    #[test]
    fn cached_prefill_charges_only_novel_tokens() {
        let cost = qwen7b_h100();
        // Nothing cached: identical to the plain prefill cost.
        assert_eq!(
            cost.prefill_time_cached(1, 512, 0),
            cost.prefill_time(1, 512)
        );
        // A 512-token system prompt already resident: prefilling the 128
        // novel tokens is strictly cheaper than prefilling all 640 from
        // scratch, but dearer than 128 tokens with no context to read.
        let reused = cost.prefill_time_cached(1, 128, 512);
        assert!(reused < cost.prefill_time(1, 640));
        assert!(reused >= cost.prefill_time(1, 128));
        // More reuse never costs more.
        assert!(cost.prefill_time_cached(1, 128, 2048) >= reused);
        assert!(cost.prefill_time_cached(1, 128, 2048) < cost.prefill_time(1, 128 + 2048));
    }

    #[test]
    fn training_and_inference_stage_times_positive_and_scaling() {
        let cost = qwen7b_h100();
        let t8 = cost.training_stage_time(1_000_000, 8);
        let t64 = cost.training_stage_time(1_000_000, 64);
        assert!(t8 > t64);
        let i1 = cost.inference_stage_time(1_000_000, 1);
        let i8 = cost.inference_stage_time(1_000_000, 8);
        assert!(i1 > i8);
    }

    #[test]
    fn graph_capture_memory_scales_with_tokens_and_batch() {
        let cost = LlmCostModel::new(ModelSpec::llama3_8b(), GpuType::H100.spec(), 4);
        let small = cost.graph_capture_bytes(1, 8);
        let large = cost.graph_capture_bytes(32, 48);
        assert!(large > small);
        // A full single-strategy bucket set should land in the single-digit-GB range
        // (paper Table 5 reports 7.81 GB).
        let buckets = [1usize, 2, 4, 8, 16, 32, 64, 128];
        let total: f64 = buckets
            .iter()
            .map(|&b| cost.graph_capture_bytes(b, 48))
            .sum();
        let gb = total / 1e9;
        assert!((3.0..15.0).contains(&gb), "single-strategy pool = {gb} GB");
    }

    #[test]
    fn drafter_weight_update_is_subsecond() {
        let cost = qwen32b_h100_tp4();
        let drafter = cost.model.eagle_drafter();
        assert!(cost.drafter_weight_update_time(&drafter) < 1.0);
    }

    #[test]
    #[should_panic(expected = "tensor-parallel degree")]
    fn zero_tp_panics() {
        let _ = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 0);
    }
}

//! Serving-subsystem configuration.

use crate::balancer::BalancerPolicy;
use crate::metrics::SloSpec;
use serde::Serialize;
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::LlmCostModel;
use tlt_model::DraftModelSpec;
use tlt_rollout::SdMode;

/// How a replica accounts KV memory at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KvAccounting {
    /// Legacy flat token budget: every request charges its full token
    /// footprint; identical prefixes are charged once per request.
    Tokens,
    /// Paged block accounting: footprints round up to whole blocks, shared
    /// prefixes are charged once per replica (PagedAttention-style), prefill
    /// only pays for tokens not already resident, and preemption/admission
    /// operate in block units.
    Paged {
        /// Tokens per KV block.
        block_size: usize,
    },
}

impl KvAccounting {
    /// The block size, if paged.
    pub fn block_size(&self) -> Option<usize> {
        match self {
            KvAccounting::Tokens => None,
            KvAccounting::Paged { block_size } => Some(*block_size),
        }
    }
}

/// Why a [`ServeConfig`] cannot be deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// [`KvAccounting::Paged`] with a zero block size.
    ZeroBlockSize,
    /// A KV block larger than a replica's whole KV token budget.
    BlockExceedsBudget {
        /// The configured block size, in tokens.
        block_size: usize,
        /// [`ServeConfig::kv_token_budget`].
        budget: usize,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::ZeroBlockSize => f.write_str("paged KV block size must be non-zero"),
            Self::BlockExceedsBudget { block_size, budget } => {
                write!(
                    f,
                    "a {block_size}-token KV block exceeds the {budget}-token budget"
                )
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Configuration of a multi-replica serving deployment.
///
/// Every replica is one tensor-parallel instance of the target model described by
/// `cost`; the frontend spreads arriving requests over `num_replicas` of them.
#[derive(Debug, Clone, Serialize)]
pub struct ServeConfig {
    /// Cost model of one replica (model geometry + GPU + TP degree).
    pub cost: LlmCostModel,
    /// Drafter geometry used by speculative steps.
    pub drafter: DraftModelSpec,
    /// Acceptance profile of the learned drafter.
    pub acceptance: AcceptanceProfile,
    /// Acceptance profile of the model-free fallback drafter.
    pub model_free_acceptance: AcceptanceProfile,
    /// Number of replicas behind the frontend.
    pub num_replicas: usize,
    /// Request routing policy.
    pub balancer: BalancerPolicy,
    /// Speculative-decoding policy applied per decode step on every replica.
    pub sd_mode: SdMode,
    /// Fraction of GPU memory usable for weights + KV cache (the rest is
    /// activations, CUDAGraph pools, fragmentation).
    pub kv_memory_fraction: f64,
    /// Hard cap on concurrently running requests per replica.
    pub max_running_requests: usize,
    /// Maximum prompt tokens packed into one prefill step (chunking bound).
    pub max_prefill_tokens: usize,
    /// Upper bound on output tokens per request; conservative admission reserves
    /// KV space for this worst case.
    pub max_output_tokens: usize,
    /// Optimistic admission with preemption: admit on current footprint and evict
    /// the most recently admitted request when KV overflows (vLLM-style recompute).
    /// When false, admission reserves `prompt + max_output_tokens` up front.
    pub preemption: bool,
    /// KV accounting granularity (flat tokens or paged blocks with prefix
    /// sharing).
    pub kv_accounting: KvAccounting,
    /// Latency SLO used for goodput accounting.
    pub slo: SloSpec,
    /// Seed for the per-replica tuner exploration streams.
    pub seed: u64,
    /// Per-replica cost-model overrides for heterogeneous fleets, as
    /// `(replica_index, cost_model)` pairs. Replicas not listed use `cost`.
    /// Later entries for the same index win.
    pub replica_overrides: Vec<(usize, LlmCostModel)>,
}

impl ServeConfig {
    /// A serving deployment with sensible defaults: SD disabled, join-shortest-queue
    /// routing, conservative KV admission.
    pub fn new(cost: LlmCostModel, num_replicas: usize) -> Self {
        assert!(num_replicas > 0, "need at least one replica");
        let drafter = cost.model.eagle_drafter();
        ServeConfig {
            cost,
            drafter,
            acceptance: AcceptanceProfile::adaptive_drafter(),
            model_free_acceptance: AcceptanceProfile::model_free_drafter(),
            num_replicas,
            balancer: BalancerPolicy::JoinShortestQueue,
            sd_mode: SdMode::Disabled,
            kv_memory_fraction: 0.9,
            max_running_requests: 256,
            max_prefill_tokens: 8192,
            max_output_tokens: 4096,
            preemption: false,
            kv_accounting: KvAccounting::Tokens,
            slo: SloSpec::interactive(),
            seed: 0,
            replica_overrides: Vec::new(),
        }
    }

    /// Same configuration with a different SD mode.
    pub fn with_sd_mode(mut self, sd_mode: SdMode) -> Self {
        self.sd_mode = sd_mode;
        self
    }

    /// Same configuration with a different balancer policy.
    pub fn with_balancer(mut self, balancer: BalancerPolicy) -> Self {
        self.balancer = balancer;
        self
    }

    /// Same configuration with optimistic admission + preemption enabled.
    pub fn with_preemption(mut self) -> Self {
        self.preemption = true;
        self
    }

    /// Same configuration with paged (block-granular) KV accounting.
    ///
    /// # Panics
    ///
    /// Panics if [`ServeConfig::validate`] rejects `block_size`.
    pub fn with_paged_kv(mut self, block_size: usize) -> Self {
        self.kv_accounting = KvAccounting::Paged { block_size };
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self
    }

    /// Checks the KV block size, which is a `pub` field and sizes per-replica
    /// tables: zero, or larger than a replica's KV token budget (a pool of no
    /// blocks), is rejected.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        let KvAccounting::Paged { block_size } = self.kv_accounting else {
            return Ok(());
        };
        if block_size == 0 {
            return Err(ServeConfigError::ZeroBlockSize);
        }
        let budget = self.kv_token_budget();
        if block_size > budget {
            return Err(ServeConfigError::BlockExceedsBudget { block_size, budget });
        }
        Ok(())
    }

    /// Same configuration with replica `index` running on a different cost
    /// model (heterogeneous fleet). The model geometry normally stays shared;
    /// only the hardware half differs between replicas.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `num_replicas`.
    pub fn with_replica_cost(mut self, index: usize, cost: LlmCostModel) -> Self {
        assert!(
            index < self.num_replicas,
            "replica override index {index} out of range for {} replicas",
            self.num_replicas
        );
        self.replica_overrides.push((index, cost));
        self
    }

    /// The cost model replica `index` runs with: its override when one is
    /// registered, the fleet-wide `cost` otherwise.
    pub fn cost_for(&self, index: usize) -> &LlmCostModel {
        self.replica_overrides
            .iter()
            .rev()
            .find(|(i, _)| *i == index)
            .map(|(_, c)| c)
            .unwrap_or(&self.cost)
    }

    /// KV capacity of one replica in blocks under paged accounting (the token
    /// budget divided by the block size; zero under token accounting).
    pub fn kv_block_budget(&self) -> usize {
        match self.kv_accounting {
            KvAccounting::Tokens => 0,
            KvAccounting::Paged { block_size } => self.kv_token_budget() / block_size,
        }
    }

    /// KV-cache capacity of one replica, in tokens: the memory left after weights
    /// across the replica's `tp` GPUs, divided by the per-token KV footprint.
    ///
    /// # Panics
    ///
    /// Panics if the model's weights alone exceed the usable memory.
    pub fn kv_token_budget(&self) -> usize {
        let usable = self.cost.gpu.memory_bytes() * self.cost.tp as f64 * self.kv_memory_fraction;
        let left = usable - self.cost.model.weight_bytes();
        assert!(
            left > 0.0,
            "model weights do not fit the replica's GPU memory"
        );
        (left / self.cost.model.kv_bytes_per_token()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::GpuType;
    use tlt_model::ModelSpec;

    fn qwen7b_h100() -> LlmCostModel {
        LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1)
    }

    #[test]
    fn kv_budget_is_large_but_finite() {
        let config = ServeConfig::new(qwen7b_h100(), 2);
        let budget = config.kv_token_budget();
        // 7B on an 80 GB H100: hundreds of thousands of KV tokens.
        assert!(budget > 100_000, "budget {budget}");
        assert!(budget < 10_000_000, "budget {budget}");
    }

    #[test]
    fn kv_budget_scales_with_tp() {
        let tp1 = ServeConfig::new(qwen7b_h100(), 1).kv_token_budget();
        let tp2 = ServeConfig::new(
            LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 2),
            1,
        )
        .kv_token_budget();
        assert!(tp2 > tp1);
    }

    #[test]
    fn replica_overrides_resolve_per_index() {
        let a100 = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::A100.spec(), 1);
        let config = ServeConfig::new(qwen7b_h100(), 3).with_replica_cost(1, a100.clone());
        assert_eq!(config.cost_for(0).gpu.gpu_type, GpuType::H100);
        assert_eq!(config.cost_for(1).gpu.gpu_type, GpuType::A100);
        assert_eq!(config.cost_for(2).gpu.gpu_type, GpuType::H100);
        // Later overrides for the same index win.
        let config = config.with_replica_cost(1, qwen7b_h100());
        assert_eq!(config.cost_for(1).gpu.gpu_type, GpuType::H100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replica_override_index_out_of_range_panics() {
        let a100 = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::A100.spec(), 1);
        let _ = ServeConfig::new(qwen7b_h100(), 2).with_replica_cost(2, a100);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_model_panics() {
        let config = ServeConfig::new(
            LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::Rtx3090.spec(), 1),
            1,
        );
        let _ = config.kv_token_budget();
    }

    #[test]
    fn validate_rejects_a_zero_or_oversized_block_with_a_typed_error() {
        let mut config = ServeConfig::new(qwen7b_h100(), 1);
        assert_eq!(config.validate(), Ok(()), "token accounting has no block");
        // `kv_accounting` is a `pub` field: the builder's check can be bypassed.
        config.kv_accounting = KvAccounting::Paged { block_size: 0 };
        assert_eq!(config.validate(), Err(ServeConfigError::ZeroBlockSize));
        let budget = config.kv_token_budget();
        config.kv_accounting = KvAccounting::Paged { block_size: budget };
        assert_eq!(config.validate(), Ok(()), "a pool of one block");
        let block_size = budget + 1;
        config.kv_accounting = KvAccounting::Paged { block_size };
        let err = config.validate().expect_err("a pool of no blocks");
        assert_eq!(
            err,
            ServeConfigError::BlockExceedsBudget { block_size, budget }
        );
        assert!(err.to_string().contains("exceeds the"));
    }

    #[test]
    #[should_panic(expected = "block size must be non-zero")]
    fn zero_block_size_still_panics_in_the_builder() {
        let _ = ServeConfig::new(qwen7b_h100(), 1).with_paged_kv(0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = ServeConfig::new(qwen7b_h100(), 0);
    }
}

//! Cluster topology and memory-feasibility modelling.
//!
//! The paper's testbed is 8 DGX-H100 nodes (64 GPUs) with NVLink inside a node and
//! InfiniBand across nodes. This module describes such clusters, derives the number
//! of rollout workers (one worker = one tensor-parallel model replica, matching the
//! paper's definition in §4.2), and estimates whether a colocated GRPO training job
//! fits in GPU memory — which is what produces the "OOM" entries of Table 3.

use crate::specs::{GpuSpec, GpuType};
use serde::{Deserialize, Serialize};
use std::fmt;
use tlt_model::spec::ModelSpec;

/// Bytes of training state per parameter for mixed-precision Adam
/// (BF16 weights + BF16 grads + FP32 master weights + FP32 moments).
pub const TRAIN_STATE_BYTES_PER_PARAM: f64 = 18.0;

/// Identifier of a rollout worker (one tensor-parallel replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub usize);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// Static description of a GPU cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// GPUs per node (8 for DGX systems).
    pub gpus_per_node: usize,
    /// GPU type installed in every node.
    pub gpu_type: GpuType,
    /// Tensor-parallel degree of each rollout worker.
    pub tp: usize,
    /// Inter-node network bandwidth in GB/s (e.g. 50 GB/s for 400 Gb/s InfiniBand).
    pub internode_gbps: f64,
}

impl ClusterConfig {
    /// The paper's default testbed: 8 DGX-H100 nodes.
    pub fn dgx_h100_testbed() -> Self {
        ClusterConfig {
            num_nodes: 8,
            gpus_per_node: 8,
            gpu_type: GpuType::H100,
            tp: 4,
            internode_gbps: 50.0,
        }
    }

    /// A single node of the given GPU type.
    pub fn single_node(gpu_type: GpuType, tp: usize) -> Self {
        ClusterConfig {
            num_nodes: 1,
            gpus_per_node: 8,
            gpu_type,
            tp,
            internode_gbps: 50.0,
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.num_nodes * self.gpus_per_node
    }

    /// Number of rollout workers (tensor-parallel replicas).
    ///
    /// # Panics
    ///
    /// Panics if the TP degree does not divide the GPU count.
    pub fn num_workers(&self) -> usize {
        assert!(self.tp > 0, "tp must be positive");
        assert_eq!(
            self.total_gpus() % self.tp,
            0,
            "tp {} does not divide total gpus {}",
            self.tp,
            self.total_gpus()
        );
        self.total_gpus() / self.tp
    }

    /// GPU specification of this cluster's GPUs.
    pub fn gpu_spec(&self) -> GpuSpec {
        self.gpu_type.spec()
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 || self.gpus_per_node == 0 {
            return Err("cluster must have at least one node and one GPU".to_string());
        }
        if self.tp == 0 {
            return Err("tp must be positive".to_string());
        }
        if self.total_gpus() % self.tp != 0 {
            return Err(format!(
                "tp {} does not divide total gpus {}",
                self.tp,
                self.total_gpus()
            ));
        }
        Ok(())
    }

    /// Estimates per-GPU memory demand of a colocated GRPO job and checks it against
    /// the GPU's capacity.
    pub fn memory_estimate(
        &self,
        model: &ModelSpec,
        global_batch: usize,
        max_response_len: usize,
    ) -> MemoryEstimate {
        let gpus = self.total_gpus() as f64;
        let spec = self.gpu_spec();
        // Sharded training state (ZeRO-3 style).
        let train_state = model.params * TRAIN_STATE_BYTES_PER_PARAM / gpus;
        // Rollout engine weights resident on each TP group.
        let rollout_weights = model.weight_bytes() / self.tp as f64;
        // Worst-case KV working set of the rollout stage spread over all GPUs.
        let kv_working_set =
            global_batch as f64 * max_response_len as f64 * model.kv_bytes_per_token() / gpus;
        // Activation working set with checkpointing (scales with sqrt(layers)).
        let activations =
            max_response_len as f64 * model.hidden as f64 * (model.num_layers as f64).sqrt() * 4.0
                / self.tp as f64;
        let required = train_state + rollout_weights + kv_working_set + activations;
        MemoryEstimate {
            train_state_bytes: train_state,
            rollout_weight_bytes: rollout_weights,
            kv_bytes: kv_working_set,
            activation_bytes: activations,
            required_bytes: required,
            capacity_bytes: spec.memory_bytes() * 0.9,
        }
    }

    /// Whether a colocated GRPO job for `model` fits in memory on this cluster.
    pub fn fits(&self, model: &ModelSpec, global_batch: usize, max_response_len: usize) -> bool {
        let est = self.memory_estimate(model, global_batch, max_response_len);
        est.required_bytes <= est.capacity_bytes
    }
}

/// Per-GPU memory breakdown of a colocated RL training job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryEstimate {
    /// Sharded optimizer/gradient/weight state for training.
    pub train_state_bytes: f64,
    /// Rollout-engine weights resident per GPU.
    pub rollout_weight_bytes: f64,
    /// KV-cache working set per GPU.
    pub kv_bytes: f64,
    /// Activation working set per GPU.
    pub activation_bytes: f64,
    /// Total required bytes per GPU.
    pub required_bytes: f64,
    /// Usable capacity per GPU (90% of HBM).
    pub capacity_bytes: f64,
}

impl MemoryEstimate {
    /// Whether the job fits.
    pub fn fits(&self) -> bool {
        self.required_bytes <= self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_64_gpus_and_16_workers() {
        let c = ClusterConfig::dgx_h100_testbed();
        assert_eq!(c.total_gpus(), 64);
        assert_eq!(c.num_workers(), 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_tp_detected() {
        let mut c = ClusterConfig::single_node(GpuType::H100, 3);
        assert!(c.validate().is_err());
        c.tp = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn qwen7b_fits_on_one_node() {
        let c = ClusterConfig::single_node(GpuType::H100, 2);
        assert!(c.fits(&ModelSpec::qwen2_5_7b(), 128, 32_768));
    }

    #[test]
    fn qwen32b_oom_below_four_nodes_as_in_table3() {
        let model = ModelSpec::qwen2_5_32b();
        let mk = |nodes| ClusterConfig {
            num_nodes: nodes,
            gpus_per_node: 8,
            gpu_type: GpuType::H100,
            tp: 8,
            internode_gbps: 50.0,
        };
        assert!(!mk(1).fits(&model, 128, 32_768), "1 node should OOM");
        assert!(!mk(2).fits(&model, 128, 32_768), "2 nodes should OOM");
        assert!(mk(4).fits(&model, 128, 32_768), "4 nodes should fit");
        assert!(mk(8).fits(&model, 128, 32_768), "8 nodes should fit");
    }

    #[test]
    fn memory_estimate_components_positive() {
        let c = ClusterConfig::dgx_h100_testbed();
        let est = c.memory_estimate(&ModelSpec::qwen2_5_32b(), 128, 32_768);
        assert!(est.train_state_bytes > 0.0);
        assert!(est.rollout_weight_bytes > 0.0);
        assert!(est.kv_bytes > 0.0);
        assert!(est.activation_bytes > 0.0);
        assert!(est.required_bytes > 0.0);
    }

    #[test]
    fn worker_id_display() {
        assert_eq!(WorkerId(3).to_string(), "W3");
    }
}

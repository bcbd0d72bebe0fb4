//! End-to-end system configurations: TLT and the baselines it is compared against.

use serde::{Deserialize, Serialize};
use tlt_gpusim::ClusterConfig;
use tlt_model::ModelSpec;
use tlt_workload::LengthDistribution;

/// Which end-to-end system to simulate (the four bars of Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Open-R1-like baseline: separate placement of rollout and training GPUs with a
    /// tight coupling between rollout and training batch sizes.
    OpenR1,
    /// VeRL-like baseline: colocated placement with GPU time-sharing, no speculative
    /// decoding.
    Verl,
    /// TLT-Base: TLT's rollout engine with the model-free n-gram drafter only
    /// (no adaptive drafter training). Timing level only: on the random-init tiny
    /// model an n-gram drafter kept a mean accept length of 1.000-1.014.
    TltBase,
    /// Full TLT: adaptive drafter (spot-trained) + adaptive rollout engine.
    Tlt,
}

impl SystemKind {
    /// All systems in the order of Figure 11.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::OpenR1,
            SystemKind::Verl,
            SystemKind::TltBase,
            SystemKind::Tlt,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::OpenR1 => "Open-R1",
            SystemKind::Verl => "VeRL",
            SystemKind::TltBase => "TLT-Base",
            SystemKind::Tlt => "TLT (Ours)",
        }
    }

    /// Whether this system uses speculative decoding at all.
    pub fn uses_sd(&self) -> bool {
        matches!(self, SystemKind::TltBase | SystemKind::Tlt)
    }

    /// Whether this system trains the adaptive drafter on idle workers.
    pub fn uses_adaptive_drafter(&self) -> bool {
        matches!(self, SystemKind::Tlt)
    }
}

/// Configuration of an end-to-end (timing-level) RL training experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentConfig {
    /// Target model geometry.
    pub model: ModelSpec,
    /// Cluster to run on.
    pub cluster: ClusterConfig,
    /// Prompts per RL step.
    pub prompts_per_step: usize,
    /// Responses sampled per prompt (GRPO group size).
    pub group_size: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Response-length distribution.
    pub length_distribution: LengthDistribution,
    /// Elastic SD activation threshold (running requests).
    pub sd_threshold: usize,
    /// Number of RL steps to simulate.
    pub num_steps: usize,
    /// Random seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's default end-to-end setting for a given model on the H100 testbed.
    pub fn paper_default(model: ModelSpec, cluster: ClusterConfig) -> Self {
        ExperimentConfig {
            model,
            cluster,
            prompts_per_step: 64,
            group_size: 8,
            prompt_len: 512,
            length_distribution: LengthDistribution::LongTailMixture {
                mu: 7.3,
                sigma: 0.9,
                truncation_mass: 0.02,
                max_len: 32_768,
            },
            sd_threshold: 32,
            num_steps: 3,
            seed: 2026,
        }
    }

    /// Total responses generated per RL step.
    pub fn requests_per_step(&self) -> usize {
        self.prompts_per_step * self.group_size
    }

    /// Uses a smaller, faster configuration (for tests and examples).
    pub fn scaled_down(mut self) -> Self {
        self.prompts_per_step = 8;
        self.group_size = 4;
        self.num_steps = 1;
        // Keep the long tail pronounced even at reduced scale: a few responses still
        // run to a 16K cap, so rollout remains the dominant stage.
        self.length_distribution = LengthDistribution::LongTailMixture {
            mu: 6.5,
            sigma: 0.8,
            truncation_mass: 0.08,
            max_len: 16_384,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::GpuType;

    #[test]
    fn system_kinds_expose_expected_capabilities() {
        assert!(!SystemKind::Verl.uses_sd());
        assert!(SystemKind::TltBase.uses_sd());
        assert!(!SystemKind::TltBase.uses_adaptive_drafter());
        assert!(SystemKind::Tlt.uses_adaptive_drafter());
        assert_eq!(SystemKind::all().len(), 4);
    }

    #[test]
    fn paper_default_is_consistent() {
        let config = ExperimentConfig::paper_default(
            ModelSpec::qwen2_5_7b(),
            ClusterConfig::dgx_h100_testbed(),
        );
        assert_eq!(config.requests_per_step(), 512);
        assert!(config.cluster.validate().is_ok());
        let small = config.scaled_down();
        assert!(small.requests_per_step() < 64);
    }

    #[test]
    fn single_node_config_builds() {
        let config = ExperimentConfig::paper_default(
            ModelSpec::qwen2_5_7b(),
            ClusterConfig::single_node(GpuType::A100, 2),
        );
        assert_eq!(config.cluster.num_workers(), 4);
    }
}

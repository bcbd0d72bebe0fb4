//! Experiment setups of the `experiments` binary.

use tlt::ExperimentConfig;
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::{ClusterConfig, GpuType, LlmCostModel};
use tlt_model::{DraftModelSpec, ModelSpec};
use tlt_workload::LengthDistribution;

/// Scale knob for the experiments: `Full` mirrors the paper's setting, `Quick` runs
/// the same code paths at reduced request counts / lengths for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale configuration (minutes of simulated work per experiment).
    Full,
    /// Reduced configuration (seconds per experiment).
    Quick,
}

impl Scale {
    /// Parses "--quick" style flags.
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// The Qwen-32B / H100 TP=4 cost model used by most single-rollout studies.
pub fn qwen32b_h100_tp4() -> LlmCostModel {
    LlmCostModel::new(ModelSpec::qwen2_5_32b(), GpuType::H100.spec(), 4)
}

/// The Qwen-7B / single-GPU cost model used by Table 2.
pub fn qwen7b_on(gpu: GpuType) -> LlmCostModel {
    LlmCostModel::new(ModelSpec::qwen2_5_7b(), gpu.spec(), 1)
}

/// EAGLE drafter for a given cost model's target.
pub fn eagle_drafter_of(cost: &LlmCostModel) -> DraftModelSpec {
    cost.model.eagle_drafter()
}

/// The adaptive-drafter acceptance profile used throughout the timing experiments.
pub fn adaptive_acceptance() -> AcceptanceProfile {
    AcceptanceProfile::adaptive_drafter()
}

/// End-to-end configuration for one model on a cluster, at the requested scale.
pub fn e2e_config(model: ModelSpec, cluster: ClusterConfig, scale: Scale) -> ExperimentConfig {
    let base = ExperimentConfig::paper_default(model, cluster);
    match scale {
        Scale::Full => base,
        Scale::Quick => {
            let mut cfg = base.scaled_down();
            cfg.length_distribution = LengthDistribution::LongTailMixture {
                mu: 6.5,
                sigma: 0.8,
                truncation_mass: 0.08,
                max_len: 8192,
            };
            cfg
        }
    }
}

/// The 8-node DGX-H100 testbed of the paper.
pub fn paper_testbed() -> ClusterConfig {
    ClusterConfig::dgx_h100_testbed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_args(&["--quick".to_string()]), Scale::Quick);
        assert_eq!(Scale::from_args(&[]), Scale::Full);
    }

    #[test]
    fn setups_build() {
        let cost = qwen32b_h100_tp4();
        assert!(eagle_drafter_of(&cost).params > 0.0);
        let cfg = e2e_config(ModelSpec::qwen2_5_7b(), paper_testbed(), Scale::Quick);
        assert!(cfg.requests_per_step() > 0);
    }
}

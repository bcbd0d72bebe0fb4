//! Group-based advantage estimators for reasoning RL.
//!
//! GRPO and its siblings (RLOO, REINFORCE, REINFORCE++) share the same rollout →
//! inference → training workflow and differ mainly in how per-response rewards are
//! turned into advantages (§2.1, §7 of the paper). All of them avoid a learned value
//! model, which is what makes the rule-based reward pipeline possible.

use serde::{Deserialize, Serialize};

/// Which RL algorithm's advantage estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RlAlgorithm {
    /// Group Relative Policy Optimization: z-scored rewards within each prompt group.
    Grpo,
    /// REINFORCE-Leave-One-Out: reward minus the mean of the *other* group members.
    Rloo,
    /// Plain REINFORCE: raw rewards (no baseline).
    Reinforce,
    /// REINFORCE++: rewards normalised by the global batch mean and standard deviation.
    ReinforcePlusPlus,
}

impl RlAlgorithm {
    /// All supported algorithms.
    pub fn all() -> [RlAlgorithm; 4] {
        [
            RlAlgorithm::Grpo,
            RlAlgorithm::Rloo,
            RlAlgorithm::Reinforce,
            RlAlgorithm::ReinforcePlusPlus,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RlAlgorithm::Grpo => "GRPO",
            RlAlgorithm::Rloo => "RLOO",
            RlAlgorithm::Reinforce => "REINFORCE",
            RlAlgorithm::ReinforcePlusPlus => "REINFORCE++",
        }
    }
}

/// Computes per-response advantages for a batch of prompt groups.
///
/// `rewards_per_group[g][i]` is the reward of the `i`-th response to prompt `g`.
/// The returned structure mirrors the input shape.
pub fn compute_advantages<G: AsRef<[f32]>>(
    algorithm: RlAlgorithm,
    rewards_per_group: &[G],
) -> Vec<Vec<f32>> {
    let groups = rewards_per_group.iter().map(AsRef::as_ref);
    match algorithm {
        RlAlgorithm::Grpo => groups.map(grpo_group).collect(),
        RlAlgorithm::Rloo => groups.map(rloo_group).collect(),
        RlAlgorithm::Reinforce => groups.map(<[f32]>::to_vec).collect(),
        RlAlgorithm::ReinforcePlusPlus => global_normalised(rewards_per_group),
    }
}

fn grpo_group(rewards: &[f32]) -> Vec<f32> {
    if rewards.is_empty() {
        return Vec::new();
    }
    let mean = rewards.iter().sum::<f32>() / rewards.len() as f32;
    let var = rewards.iter().map(|r| (r - mean).powi(2)).sum::<f32>() / rewards.len() as f32;
    let std = var.sqrt().max(1e-6);
    rewards.iter().map(|r| (r - mean) / std).collect()
}

fn rloo_group(rewards: &[f32]) -> Vec<f32> {
    let n = rewards.len();
    if n <= 1 {
        return vec![0.0; n];
    }
    let sum: f32 = rewards.iter().sum();
    rewards
        .iter()
        .map(|&r| r - (sum - r) / (n - 1) as f32)
        .collect()
}

fn global_normalised<G: AsRef<[f32]>>(groups: &[G]) -> Vec<Vec<f32>> {
    let all: Vec<f32> = groups
        .iter()
        .flat_map(|g| g.as_ref().iter().copied())
        .collect();
    if all.is_empty() {
        return groups.iter().map(|g| g.as_ref().to_vec()).collect();
    }
    let mean = all.iter().sum::<f32>() / all.len() as f32;
    let var = all.iter().map(|r| (r - mean).powi(2)).sum::<f32>() / all.len() as f32;
    let std = var.sqrt().max(1e-6);
    groups
        .iter()
        .map(|g| g.as_ref().iter().map(|r| (r - mean) / std).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grpo_advantages_are_zero_mean_within_group() {
        let groups = vec![vec![1.0, 0.0, 0.0, 1.0], vec![1.0, 1.0, 0.0, 0.0]];
        let adv = compute_advantages(RlAlgorithm::Grpo, &groups);
        for g in adv {
            let mean: f32 = g.iter().sum::<f32>() / g.len() as f32;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn grpo_rewards_correct_responses_more() {
        let groups = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let adv = compute_advantages(RlAlgorithm::Grpo, &groups);
        assert!(adv[0][0] > 0.0);
        assert!(adv[0][1] < 0.0);
    }

    #[test]
    fn grpo_uniform_rewards_give_zero_advantage() {
        // If every response in the group gets the same reward there is no signal.
        let groups = vec![vec![1.0, 1.0, 1.0]];
        let adv = compute_advantages(RlAlgorithm::Grpo, &groups);
        for a in &adv[0] {
            assert!(a.abs() < 1e-3);
        }
    }

    #[test]
    fn rloo_leave_one_out_baseline() {
        let groups = vec![vec![1.0, 0.0]];
        let adv = compute_advantages(RlAlgorithm::Rloo, &groups);
        assert_eq!(adv[0], vec![1.0, -1.0]);
        // Single-response groups have no leave-one-out baseline.
        let single = compute_advantages(RlAlgorithm::Rloo, &[vec![1.0]]);
        assert_eq!(single[0], vec![0.0]);
    }

    #[test]
    fn reinforce_passes_rewards_through() {
        let groups = vec![vec![0.25, 0.75]];
        assert_eq!(compute_advantages(RlAlgorithm::Reinforce, &groups), groups);
    }

    #[test]
    fn reinforce_plus_plus_normalises_globally() {
        let groups = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        let adv = compute_advantages(RlAlgorithm::ReinforcePlusPlus, &groups);
        let all: Vec<f32> = adv.iter().flatten().copied().collect();
        let mean: f32 = all.iter().sum::<f32>() / all.len() as f32;
        assert!(mean.abs() < 1e-5);
        assert!(all[0] > 0.0 && all[1] < 0.0);
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(RlAlgorithm::Grpo.name(), "GRPO");
        assert_eq!(RlAlgorithm::all().len(), 4);
    }
}

//! End-to-end (timing-level) RL training pipeline simulation.
//!
//! Reproduces the paper's end-to-end comparisons (Figure 1a's step breakdown,
//! Figure 11's cross-system throughput, Table 3's cluster scaling) by composing the
//! per-stage cost models: rollout (per-worker continuous-batching simulation with or
//! without adaptive SD), the inference stage (target + reference re-prefill), the
//! training stage, and stage-transition overheads. For TLT the idle GPU time freed by
//! the long tail is additionally converted into opportunistic drafter-training
//! iterations (the Spot Trainer), and the drafter's acceptance profile reflects
//! whether it is adaptively trained (TLT) or model-free (TLT-Base).

use crate::config::{ExperimentConfig, SystemKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::LlmCostModel;
use tlt_rollout::{
    simulate_rollout_seeded, RolloutProfile, SdManagerConfig, SdMode, SimRolloutConfig,
};

/// Per-step overhead of colocated systems (weight resharding, reward computation,
/// data movement between stages) as a fraction of the step's compute time. The
/// resharding and reward work both scale with the step's batch, so the overhead is
/// proportional rather than a fixed wall-clock cost.
pub const COLOCATED_TRANSITION_FRAC: f64 = 0.12;
/// Additional TLT overhead (drafter weight update + coordination) as a fraction of
/// compute time; the paper reports it below 1% of step time.
pub const TLT_EXTRA_TRANSITION_FRAC: f64 = 0.01;
/// Fixed SD mode-switch cost of TLT (drafter hot-swap re-prefill + CUDAGraph
/// re-capture), in seconds; the paper reports a ~3 s switch.
pub const TLT_SWITCH_S: f64 = 3.0;
/// Per-step overhead of the separate-placement baseline (cross-node weight
/// synchronisation between the training and serving clusters) as a fraction of the
/// step's compute time; full weights cross the slow inter-cluster links every step.
pub const SEPARATE_PLACEMENT_TRANSITION_FRAC: f64 = 0.25;

/// Per-stage time breakdown of one RL step (the quantities of Figure 1a).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// Rollout (generation) stage seconds.
    pub rollout_s: f64,
    /// Inference stage (target + reference logits) seconds.
    pub inference_s: f64,
    /// Training stage seconds.
    pub training_s: f64,
    /// Everything else (stage transitions, reward computation, coordination).
    pub other_s: f64,
}

impl StepBreakdown {
    /// Total step time.
    pub fn total_s(&self) -> f64 {
        self.rollout_s + self.inference_s + self.training_s + self.other_s
    }

    /// Fraction of the step spent in rollout.
    pub fn rollout_fraction(&self) -> f64 {
        if self.total_s() <= 0.0 {
            0.0
        } else {
            self.rollout_s / self.total_s()
        }
    }
}

/// Result of simulating one system on one experiment configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Which system was simulated.
    pub system: SystemKind,
    /// Per-step breakdowns.
    pub steps: Vec<StepBreakdown>,
    /// Mean tokens (prompt + response) processed per step.
    pub tokens_per_step: f64,
    /// Mean end-to-end token throughput (tokens per second).
    pub throughput_tokens_per_s: f64,
    /// Mean drafter-training iterations harvested from idle GPUs per step (TLT only).
    pub drafter_updates_per_step: f64,
    /// Mean idle GPU-seconds per step left by the long tail (before harvesting).
    pub idle_gpu_seconds_per_step: f64,
    /// Mean accept length observed in speculative steps (1.0 when SD is unused).
    pub mean_accept_length: f64,
    /// Decode steps simulated over every rollout of the run.
    pub decode_steps: u64,
    /// Decode steps that ran speculative decoding.
    pub speculative_steps: u64,
}

impl ExperimentResult {
    /// Mean step time in seconds.
    pub fn mean_step_time_s(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.steps.iter().map(StepBreakdown::total_s).sum::<f64>() / self.steps.len() as f64
        }
    }

    /// Throughput speedup relative to a baseline result.
    pub fn speedup_over(&self, baseline: &ExperimentResult) -> f64 {
        if baseline.throughput_tokens_per_s <= 0.0 {
            1.0
        } else {
            self.throughput_tokens_per_s / baseline.throughput_tokens_per_s
        }
    }

    /// Mean step breakdown across steps.
    pub fn mean_breakdown(&self) -> StepBreakdown {
        let n = self.steps.len().max(1) as f64;
        StepBreakdown {
            rollout_s: self.steps.iter().map(|s| s.rollout_s).sum::<f64>() / n,
            inference_s: self.steps.iter().map(|s| s.inference_s).sum::<f64>() / n,
            training_s: self.steps.iter().map(|s| s.training_s).sum::<f64>() / n,
            other_s: self.steps.iter().map(|s| s.other_s).sum::<f64>() / n,
        }
    }
}

fn acceptance_for(system: SystemKind) -> AcceptanceProfile {
    match system {
        SystemKind::Tlt => AcceptanceProfile::adaptive_drafter(),
        SystemKind::TltBase => AcceptanceProfile::model_free_drafter(),
        _ => AcceptanceProfile::stale_drafter(),
    }
}

fn sd_mode_for(system: SystemKind, config: &ExperimentConfig) -> SdMode {
    if !system.uses_sd() {
        return SdMode::Disabled;
    }
    SdMode::Adaptive {
        config: SdManagerConfig {
            elastic_threshold: config.sd_threshold,
            learned_drafter_available: system.uses_adaptive_drafter(),
            model_free_fallback: true,
            ..SdManagerConfig::default()
        },
    }
}

/// Simulates `config.num_steps` RL steps of `system` and returns aggregate results.
pub fn run_experiment(system: SystemKind, config: &ExperimentConfig) -> ExperimentResult {
    let cluster = config.cluster;
    let gpu = cluster.gpu_spec();
    // One rollout configuration serves every worker of every step; only the
    // exploration seed differs between workers.
    let sim = SimRolloutConfig {
        cost: LlmCostModel::new(config.model.clone(), gpu, cluster.tp),
        drafter: config.model.eagle_drafter(),
        acceptance: acceptance_for(system),
        model_free_acceptance: AcceptanceProfile::model_free_drafter(),
        prompt_len: config.prompt_len,
        sd_mode: sd_mode_for(system, config),
        seed: config.seed,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Open-R1-like separate placement: only half the cluster serves rollout and the
    // rollout is executed in `group_size` sequential waves because its rollout batch
    // is coupled to the training batch.
    let (rollout_workers, rollout_waves, train_gpus) = match system {
        SystemKind::OpenR1 => (
            (cluster.num_workers() / 2).max(1),
            config.group_size.max(1),
            (cluster.total_gpus() / 2).max(1),
        ),
        _ => (cluster.num_workers(), 1, cluster.total_gpus()),
    };
    let gpus_per_worker = cluster.tp;

    let mut steps = Vec::with_capacity(config.num_steps);
    let mut total_tokens_acc = 0.0;
    let mut drafter_updates_acc = 0.0;
    let mut idle_acc = 0.0;
    let mut accept_acc = 0.0;
    let mut accept_count = 0usize;
    let (mut decode_steps, mut speculative_steps) = (0, 0);
    let mut wave_lengths: Vec<usize> = Vec::new();
    let mut share: Vec<usize> = Vec::new();
    let mut worker_profiles: Vec<RolloutProfile> = Vec::with_capacity(rollout_workers);

    for step in 0..config.num_steps {
        let lengths = config
            .length_distribution
            .sample_many(config.requests_per_step(), &mut rng);
        let total_response_tokens: usize = lengths.iter().sum();
        let total_tokens = total_response_tokens + config.requests_per_step() * config.prompt_len;
        total_tokens_acc += total_tokens as f64;

        // --- Rollout stage ---
        let mut rollout_s = 0.0;
        let mut idle_gpu_seconds = 0.0;
        for wave in 0..rollout_waves {
            wave_lengths.clear();
            wave_lengths.extend(lengths.iter().skip(wave).step_by(rollout_waves));
            if wave_lengths.is_empty() {
                continue;
            }
            // Distribute this wave's requests round-robin over the rollout workers and
            // simulate each worker independently; the wave ends when the slowest
            // worker finishes.
            worker_profiles.clear();
            for w in 0..rollout_workers {
                share.clear();
                share.extend(wave_lengths.iter().skip(w).step_by(rollout_workers));
                if share.is_empty() {
                    continue;
                }
                let seed = config.seed ^ (step as u64) << 8 ^ w as u64;
                worker_profiles.push(simulate_rollout_seeded(&sim, seed, &share));
            }
            let wave_end = worker_profiles
                .iter()
                .map(|p| p.total_time_s)
                .fold(0.0, f64::max);
            rollout_s += wave_end;
            for p in &worker_profiles {
                idle_gpu_seconds += (wave_end - p.total_time_s) * gpus_per_worker as f64
                    + p.idle_request_seconds / p.total_tokens.max(1) as f64;
                accept_acc += p.mean_accept_length;
                accept_count += 1;
                decode_steps += p.steps;
                speculative_steps += p.speculative_steps;
            }
        }
        idle_acc += idle_gpu_seconds;

        // --- Inference + training stages ---
        let inference_s = sim.cost.inference_stage_time(total_tokens, rollout_workers);
        let training_s = sim.cost.training_stage_time(total_tokens, train_gpus);

        // --- Other / transition overheads ---
        let compute_s = rollout_s + inference_s + training_s;
        let other_s = match system {
            SystemKind::OpenR1 => SEPARATE_PLACEMENT_TRANSITION_FRAC * compute_s,
            SystemKind::Verl | SystemKind::TltBase => COLOCATED_TRANSITION_FRAC * compute_s,
            SystemKind::Tlt => {
                (COLOCATED_TRANSITION_FRAC + TLT_EXTRA_TRANSITION_FRAC) * compute_s + TLT_SWITCH_S
            }
        };

        // --- Spot trainer: convert idle GPU time into drafter updates (TLT only) ---
        if system.uses_adaptive_drafter() {
            let iter_time = sim
                .cost
                .drafter_train_step_time(&sim.drafter, 4096)
                .max(1e-6);
            drafter_updates_acc += idle_gpu_seconds / (gpus_per_worker as f64 * iter_time);
        }

        steps.push(StepBreakdown {
            rollout_s,
            inference_s,
            training_s,
            other_s,
        });
    }

    let n = config.num_steps.max(1) as f64;
    let tokens_per_step = total_tokens_acc / n;
    let mean_step_time: f64 = steps.iter().map(StepBreakdown::total_s).sum::<f64>() / n;
    ExperimentResult {
        system,
        steps,
        tokens_per_step,
        throughput_tokens_per_s: tokens_per_step / mean_step_time.max(1e-9),
        drafter_updates_per_step: drafter_updates_acc / n,
        idle_gpu_seconds_per_step: idle_acc / n,
        mean_accept_length: if accept_count == 0 {
            1.0
        } else {
            accept_acc / accept_count as f64
        },
        decode_steps,
        speculative_steps,
    }
}

/// Runs all four systems on the same configuration (one column group of Figure 11).
pub fn run_comparison(config: &ExperimentConfig) -> Vec<ExperimentResult> {
    SystemKind::all()
        .into_iter()
        .map(|system| run_experiment(system, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::{ClusterConfig, GpuType};
    use tlt_model::ModelSpec;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig::paper_default(
            ModelSpec::qwen2_5_7b(),
            ClusterConfig::single_node(GpuType::H100, 2),
        )
        .scaled_down()
    }

    #[test]
    fn rollout_dominates_the_step_for_verl() {
        let config = small_config();
        let result = run_experiment(SystemKind::Verl, &config);
        let breakdown = result.mean_breakdown();
        assert!(
            breakdown.rollout_fraction() > 0.6,
            "rollout fraction {} should dominate",
            breakdown.rollout_fraction()
        );
        assert!(result.throughput_tokens_per_s > 0.0);
    }

    #[test]
    fn figure11_ordering_holds() {
        let config = small_config();
        let results = run_comparison(&config);
        let by_kind = |k: SystemKind| {
            results
                .iter()
                .find(|r| r.system == k)
                .expect("system present")
                .throughput_tokens_per_s
        };
        let openr1 = by_kind(SystemKind::OpenR1);
        let verl = by_kind(SystemKind::Verl);
        let tlt_base = by_kind(SystemKind::TltBase);
        let tlt = by_kind(SystemKind::Tlt);
        assert!(verl > openr1, "VeRL {verl} should beat Open-R1 {openr1}");
        assert!(
            tlt_base > verl,
            "TLT-Base {tlt_base} should beat VeRL {verl}"
        );
        assert!(tlt > tlt_base, "TLT {tlt} should beat TLT-Base {tlt_base}");
        // Headline number: TLT should land in the right speedup range over VeRL.
        let speedup = tlt / verl;
        assert!(
            (1.3..3.5).contains(&speedup),
            "TLT speedup over VeRL out of range: {speedup:.2}"
        );
    }

    #[test]
    fn tlt_harvests_idle_gpu_time_for_drafter_training() {
        let config = small_config();
        let tlt = run_experiment(SystemKind::Tlt, &config);
        let verl = run_experiment(SystemKind::Verl, &config);
        assert!(tlt.drafter_updates_per_step > 0.0);
        assert_eq!(verl.drafter_updates_per_step, 0.0);
        assert!(verl.idle_gpu_seconds_per_step > 0.0);
    }

    #[test]
    fn results_are_deterministic() {
        let config = small_config();
        let a = run_experiment(SystemKind::Tlt, &config);
        let b = run_experiment(SystemKind::Tlt, &config);
        assert_eq!(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    }
}

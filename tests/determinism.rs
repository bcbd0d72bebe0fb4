//! Deterministic-seeding guarantees: the whole stack is a pure function of its
//! seeds. Two runs with identical seeds must produce bit-identical outputs, at
//! the timing level (`run_experiment`), at the token level
//! (`speculative_generate`), at the serving level (`run_serving`), and under
//! injected faults (`tlt::chaos`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt::{
    run_experiment, run_serving, ExperimentConfig, ServingExperimentConfig, ServingSdPolicy,
    SystemKind,
};
use tlt_draft::{DraftModel, FeatureSource};
use tlt_gpusim::{ClusterConfig, GpuType};
use tlt_model::{ModelConfig, ModelSpec, SamplingParams, TinyLm};
use tlt_rollout::{speculative_generate, SdStrategy, SpecDrafter};
use tlt_workload::{generate_arrivals, ArrivalConfig};

fn quick_config() -> ExperimentConfig {
    ExperimentConfig::paper_default(
        ModelSpec::qwen2_5_7b(),
        ClusterConfig::single_node(GpuType::H100, 2),
    )
    .scaled_down()
}

#[test]
fn run_experiment_is_deterministic_across_runs() {
    let config = quick_config();
    for system in [SystemKind::Verl, SystemKind::Tlt] {
        let first = run_experiment(system, &config);
        let second = run_experiment(system, &config);
        assert_eq!(
            first.throughput_tokens_per_s, second.throughput_tokens_per_s,
            "{system:?}: throughput must be identical for identical seeds"
        );
        let (a, b) = (first.mean_breakdown(), second.mean_breakdown());
        assert_eq!(a.rollout_s, b.rollout_s);
        assert_eq!(a.training_s, b.training_s);
        assert_eq!(
            first.drafter_updates_per_step,
            second.drafter_updates_per_step
        );
    }
}

#[test]
fn speculative_generate_is_deterministic_across_runs() {
    let target = TinyLm::new(ModelConfig::micro(), 42);
    let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 7);
    let prompt = [1u32, 4, 2, 8];
    let strategy = SdStrategy {
        draft_depth: 4,
        top_k: 1,
        tokens_to_verify: 4,
    };
    let run = |seed: u64, params: SamplingParams| {
        let mut rng = StdRng::seed_from_u64(seed);
        speculative_generate(
            &target,
            &SpecDrafter::Learned(&drafter),
            &prompt,
            32,
            strategy,
            params,
            None,
            &mut rng,
        )
    };
    // Identical seeds: identical token streams, greedy and sampled alike.
    for params in [SamplingParams::greedy(), SamplingParams::default()] {
        let first = run(3, params);
        let second = run(3, params);
        assert_eq!(first.tokens, second.tokens);
    }
}

#[test]
fn serving_runs_are_bit_identical_across_runs() {
    let mut config = ServingExperimentConfig::qwen7b_bursty(2, 8.0);
    config.horizon_s = 20.0;
    for policy in ServingSdPolicy::all() {
        let first = run_serving(&config, policy);
        let second = run_serving(&config, policy);
        assert_eq!(
            first.completed, second.completed,
            "{policy:?}: per-request records must be identical for identical seeds"
        );
        assert_eq!(first.makespan_s, second.makespan_s);
        assert_eq!(
            first.throughput_tokens_per_s,
            second.throughput_tokens_per_s
        );
        assert_eq!(first.goodput_rps, second.goodput_rps);
        assert_eq!(first.ttft, second.ttft);
        assert_eq!(first.tpot, second.tpot);
        assert_eq!(first.e2e, second.e2e);
        assert_eq!(first.replicas, second.replicas);
    }
}

#[test]
fn serving_traces_are_byte_identical_across_runs() {
    // The flight recorder observes the serving run without perturbing it, and
    // the Chrome trace rendered from it is a pure function of the seed: two
    // identically-seeded runs must serialize to byte-identical JSON.
    let mut config = ServingExperimentConfig::qwen7b_bursty(2, 8.0);
    config.horizon_s = 20.0;
    let trace_bytes = || {
        tlt::obs::install(tlt::obs::FlightRecorder::new(8192));
        let report = run_serving(&config, ServingSdPolicy::Adaptive);
        let recorder = tlt::obs::uninstall().expect("recorder installed above");
        let events = recorder.events();
        assert!(!events.is_empty(), "serving run recorded no events");
        (report, tlt::obs::chrome_trace(&events).to_string())
    };
    let (report_a, bytes_a) = trace_bytes();
    let (report_b, bytes_b) = trace_bytes();
    // The recorder must not have changed the simulation itself either.
    assert_eq!(report_a.completed, report_b.completed);
    assert_eq!(
        bytes_a, bytes_b,
        "trace bytes differ between identical runs"
    );
}

#[test]
fn arrival_streams_are_bit_identical_across_runs() {
    let config = ArrivalConfig::constant(12.0, 60.0, 2026);
    assert_eq!(generate_arrivals(&config), generate_arrivals(&config));
}

#[test]
fn different_serving_seeds_change_the_arrival_stream() {
    let mut a = ServingExperimentConfig::qwen7b_bursty(2, 8.0);
    a.horizon_s = 20.0;
    let mut b = a.clone();
    b.seed = a.seed + 1;
    let ra = run_serving(&a, ServingSdPolicy::Adaptive);
    let rb = run_serving(&b, ServingSdPolicy::Adaptive);
    assert_ne!(ra.completed.len(), 0);
    assert_ne!(ra.completed, rb.completed);
}

#[test]
fn chaos_runs_are_bit_identical_per_seed_and_scenario() {
    // Same seed + same fault schedule => bit-identical per-request records and
    // metrics, even across crashes, failover re-queues, storms and checkpoint
    // faults. (run_scenario additionally self-checks this as the
    // seed-determinism invariant; here we assert it from the outside.)
    let scenario = tlt::chaos::Scenario::builder("determinism-probe")
        .seed(31)
        .replicas(3)
        .arrivals(12.0, 8.0)
        .adaptive_sd()
        .crash(2.0, 1)
        .storm(3.0, 30.0, 1.0)
        .restart(4.5, 1)
        .corrupt_checkpoint(5.0)
        .build();
    let a = tlt::chaos::run_scenario(&scenario);
    let b = tlt::chaos::run_scenario(&scenario);
    assert!(a.invariants.passed(), "{:?}", a.invariants.violations);
    assert!(b.invariants.passed());
    assert_eq!(a.report.completed, b.report.completed);
    assert_eq!(a.report.makespan_s, b.report.makespan_s);
    assert_eq!(
        a.report.throughput_tokens_per_s,
        b.report.throughput_tokens_per_s
    );
    assert_eq!(a.requeued, b.requeued);
    assert_eq!(a.coordinator, b.coordinator);
    assert_eq!(a.drafter, b.drafter);

    // A different seed genuinely changes the run.
    let mut other = scenario.clone();
    other.seed += 1;
    let c = tlt::chaos::run_scenario(&other);
    assert_ne!(a.report.completed, c.report.completed);
}

#[test]
fn different_seeds_change_sampled_outputs() {
    // Sanity check that the determinism above is not vacuous (i.e. the rng is
    // actually consulted): sampled generation with different seeds diverges
    // for at least one of a handful of seed pairs.
    let target = TinyLm::new(ModelConfig::micro(), 42);
    let prompt = [1u32, 4, 2, 8];
    let mut diverged = false;
    for seed in 0..4u64 {
        let gen = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            tlt_rollout::vanilla_generate(
                &target,
                &prompt,
                32,
                SamplingParams::default(),
                None,
                &mut rng,
            )
        };
        if gen(seed).tokens != gen(seed + 100).tokens {
            diverged = true;
            break;
        }
    }
    assert!(diverged, "sampled generation never consulted the rng");
}

/// What a token-level experiment computes in integers, or from integers alone:
/// a change to the float numerics (a different `exp`, a reordered sum) may move
/// [`float_digest`] but must leave every field here as it was, because moving
/// one takes a different sampled token or a different accept decision.
#[derive(Debug, PartialEq)]
struct IntegerSignature {
    generated_tokens: usize,
    target_steps: usize,
    /// Response tokens of each RL step.
    response_len_sums: Vec<u64>,
    /// Per step, the mean over responses of accepted tokens per SD round: `f64`
    /// arithmetic on the accept lengths' counts and sums, nothing else.
    accept_length_curve: Vec<f64>,
    /// Iteration stamp of every drafter-accuracy point, in order.
    drafter_iterations: Vec<u64>,
}

fn integer_signature(
    config: &tlt::TokenExperimentConfig,
    report: &tlt::TokenExperimentReport,
) -> IntegerSignature {
    let responses_per_step = (config.prompts_per_step * config.group_size) as f64;
    IntegerSignature {
        generated_tokens: report.generated_tokens,
        target_steps: report.rollout_target_steps,
        response_len_sums: report
            .response_len_curve
            .iter()
            .map(|mean| (mean * responses_per_step).round() as u64)
            .collect(),
        accept_length_curve: report.accept_length_curve.clone(),
        drafter_iterations: report
            .drafter_accuracy
            .iter()
            .map(|p| p.iteration)
            .collect(),
    }
}

/// FNV-1a 64 over the floats a token-level experiment computes: the reward, KL
/// and drafter-accuracy curves and the trained weights of the target's tail and
/// of the drafter, all by bit pattern.
fn float_digest(report: &tlt::TokenExperimentReport, target: &TinyLm, drafter: &DraftModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for curve in [&report.reward_curve, &report.kl_curve] {
        eat(curve.len() as u64);
        curve.iter().for_each(|v| eat(v.to_bits()));
    }
    for point in &report.drafter_accuracy {
        eat(point.top3_accuracy.to_bits());
        eat(u64::from(point.after_target_update));
    }
    let last = target.layers.last().expect("at least one layer");
    for weights in [
        target.lm_head.as_slice(),
        &target.final_norm[..],
        last.wq.as_slice(),
        last.wk.as_slice(),
        last.wv.as_slice(),
        last.wo.as_slice(),
        last.w_down.as_slice(),
        drafter.fusion.weight.as_slice(),
        drafter.layer.wq.as_slice(),
        drafter.layer.w_up.as_slice(),
    ] {
        weights.iter().for_each(|v| eat(u64::from(v.to_bits())));
    }
    hash
}

#[test]
fn token_experiments_reproduce_their_pinned_digests() {
    // Rollouts, drafter training and the GRPO update, pinned twice. The integer
    // signature must survive any change to the float numerics; if it moves, say
    // which sampling decision flipped instead of re-pinning it. The float digest
    // is re-pinned when the numerics change on purpose, last when `f32::exp`
    // gave way to `tlt_model::mathx::exp` and the KL block started reading
    // log-probabilities off the logits (CHANGES.md has the values on each side).
    use tlt::TokenExperimentConfig;
    let one_step_tiny = TokenExperimentConfig {
        model: ModelConfig::tiny(),
        num_steps: 1,
        prompts_per_step: 3,
        max_new_tokens: 96,
        ..TokenExperimentConfig::small(true, true)
    };
    for (name, config, signature, pinned) in [
        (
            "small(false, false)",
            TokenExperimentConfig::small(false, false),
            IntegerSignature {
                generated_tokens: 1_232,
                target_steps: 1_232,
                response_len_sums: vec![395, 421, 416],
                accept_length_curve: vec![1.0, 1.0, 1.0],
                drafter_iterations: vec![],
            },
            0x560f_f2a8_c79b_645cu64,
        ),
        (
            "small(true, true)",
            TokenExperimentConfig::small(true, true),
            IntegerSignature {
                generated_tokens: 1_220,
                target_steps: 512,
                response_len_sums: vec![433, 421, 366],
                accept_length_curve: vec![2.64648033126294, 2.873439060939061, 3.2315491221741226],
                drafter_iterations: vec![
                    1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10, 11, 12, 12, 13, 14, 15, 16, 17, 18, 18,
                ],
            },
            0xb5b5_80d2_6af4_697b,
        ),
        (
            "one-step tiny TLT",
            one_step_tiny,
            IntegerSignature {
                generated_tokens: 452,
                target_steps: 173,
                response_len_sums: vec![452],
                accept_length_curve: vec![2.814514896867838],
                drafter_iterations: vec![1, 2, 3, 4, 5, 6, 6],
            },
            0x28b1_1cf3_5c21_506a,
        ),
    ] {
        let (report, target, drafter) = tlt::run_token_experiment(&config);
        let digest = float_digest(&report, &target, &drafter);
        eprintln!(
            "{name}: {:?} {digest:#018x}",
            integer_signature(&config, &report)
        );
        assert_eq!(integer_signature(&config, &report), signature, "{name}");
        assert_eq!(digest, pinned, "{name}: float digest {digest:#018x}");
    }
}

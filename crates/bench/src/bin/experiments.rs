//! Regenerates every table and figure of the TLT paper's evaluation section, plus
//! the online-serving study built on `tlt-serve`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p tlt-bench --release --bin experiments -- all [--quick]
//! cargo run -p tlt-bench --release --bin experiments -- fig11 table4 serving ...
//! cargo run -p tlt-bench --release --bin experiments -- serving --json out.json
//! cargo run -p tlt-bench --release --bin experiments -- serving --trace-out trace.json --metrics
//! cargo run -p tlt-bench --release --bin experiments -- chaos [--json chaos.json] \
//!     [--trace-out chaos_trace.json]
//! cargo run -p tlt-bench --release --bin experiments -- replay [--trace corpus/chat.tltr] \
//!     [--stream] [--rate-scale 2.0] [--write-corpus corpus] [--json replay.json]
//! cargo run -p tlt-bench --release --bin experiments -- replay --write-million trace.tltr
//! ```
//!
//! `--json <path>` additionally writes every produced table as machine-readable
//! JSON. Performance is measured by the repo benchmark, not here (see
//! `benchmark/README.md`).
//!
//! `--trace-out <path>` (serving, chaos) installs a `tlt-obs` flight
//! recorder around the run and writes the retained events as Chrome
//! `trace_event` JSON — load it in `chrome://tracing` or Perfetto. Traces are
//! sim-time, so two runs with the same seed write byte-identical files.
//! `--metrics` prints an extra metrics summary table for those subcommands.
//!
//! Absolute numbers come from the simulated substrate (roofline GPU model + tiny
//! transformer), so they are not expected to match the paper's testbed; the *shape*
//! of every result (who wins, by roughly what factor, where crossovers fall) is the
//! reproduction target.

use tlt::{
    run_comparison, run_disagg_comparison, run_experiment, run_prefix_sharing_comparison,
    run_serving_comparison, run_token_experiment, ServingExperimentConfig, SystemKind,
    TokenExperimentConfig,
};
use tlt_bench::report::{Report, Table};
use tlt_bench::setups::{
    adaptive_acceptance, e2e_config, eagle_drafter_of, paper_testbed, qwen32b_h100_tp4, qwen7b_on,
    Scale,
};
use tlt_draft::{
    packing_stats, AcceptanceProfile, CheckpointMode, CheckpointStore, DataBuffer,
    DataBufferConfig, DrafterTrainer, FeatureSource, TrainerConfig, TrainingSample,
    TrainingStrategy,
};
use tlt_gpusim::{ClusterConfig, GpuType, LlmCostModel};
use tlt_model::{parallel_map, ModelConfig, ModelSpec, SamplingParams, TinyLm};
use tlt_rl::{PolicyTrainer, RlConfig, RolloutGroup};
use tlt_rollout::{
    default_batch_buckets, fixed_batch_speedup, measure_acceptance, simulate_rollout,
    single_request_throughput, vanilla_generate, CaptureMode, CudaGraphPool, SdManagerConfig,
    SdMode, SdStrategy, SimRolloutConfig, SpecDrafter,
};
use tlt_workload::{
    length_histogram, synthesize_bytedance_trace, LengthDistribution, LengthStats, TaskGenerator,
    TraceConfig, TraceSummary,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Selectors accepted on the command line, in presentation order.
const EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "fig11", "fig12", "fig13", "table1", "table2", "table3", "table4", "table5",
    "fig14", "fig15", "table6", "fig16", "fig17", "table7", "table8", "serving",
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!(
            "usage: experiments [--quick] [--json <path>] [--prefix-share <0..1>] [--disagg] \
             [--trace-out <path>] [--metrics] [--trace <path>] [--stream] [--rate-scale <f>] \
             [--write-corpus <dir>] [--write-million <path>] [all | chaos | replay | {}]",
            EXPERIMENTS.join(" | ")
        );
        std::process::exit(2);
    };
    // Extract value-carrying flags before selector parsing so their values are
    // not mistaken for experiment names.
    let mut args: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut prefix_share = 0.0f64;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut disagg = false;
    let mut replay_trace: Option<String> = None;
    let mut write_corpus: Option<String> = None;
    let mut write_million: Option<String> = None;
    let mut stream = false;
    let mut rate_scale: Option<f64> = None;
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--disagg" {
            disagg = true;
        } else if arg == "--trace" {
            match iter.next() {
                Some(path) if !path.starts_with("--") => replay_trace = Some(path),
                _ => {
                    eprintln!("error: --trace requires a path");
                    usage();
                }
            }
        } else if arg == "--write-corpus" {
            match iter.next() {
                Some(dir) if !dir.starts_with("--") => write_corpus = Some(dir),
                _ => {
                    eprintln!("error: --write-corpus requires a directory");
                    usage();
                }
            }
        } else if arg == "--stream" {
            stream = true;
        } else if arg == "--write-million" {
            match iter.next() {
                Some(path) if !path.starts_with("--") => write_million = Some(path),
                _ => {
                    eprintln!("error: --write-million requires a path");
                    usage();
                }
            }
        } else if arg == "--rate-scale" {
            match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v > 0.0 => rate_scale = Some(v),
                _ => {
                    eprintln!("error: --rate-scale requires a positive factor");
                    usage();
                }
            }
        } else if arg == "--trace-out" {
            match iter.next() {
                Some(path) if !path.starts_with("--") => trace_out = Some(path),
                _ => {
                    eprintln!("error: --trace-out requires a path");
                    usage();
                }
            }
        } else if arg == "--metrics" {
            metrics = true;
        } else if arg == "--json" {
            match iter.next() {
                Some(path) if !path.starts_with("--") => json_path = Some(path),
                _ => {
                    eprintln!("error: --json requires a path");
                    usage();
                }
            }
        } else if arg == "--prefix-share" {
            match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if (0.0..=1.0).contains(&v) => prefix_share = v,
                _ => {
                    eprintln!("error: --prefix-share requires a fraction in [0, 1]");
                    usage();
                }
            }
        } else {
            args.push(arg);
        }
    }
    let scale = Scale::from_args(&args);
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    for flag in args.iter().filter(|a| a.starts_with("--")) {
        if flag != "--quick" {
            eprintln!("error: unknown flag '{flag}'");
            usage();
        }
    }

    // `chaos` is a standalone subcommand: it runs the pinned fault-injection
    // scenario matrix, prints (and optionally exports) the per-scenario
    // invariant verdicts, and exits non-zero if any invariant was violated —
    // the contract the `chaos-suite` CI job gates on.
    if selected.iter().any(|s| s == "chaos") {
        if selected.len() > 1 {
            eprintln!("error: 'chaos' cannot be combined with other selectors");
            usage();
        }
        let failures = chaos(json_path.as_deref(), trace_out.as_deref(), metrics);
        std::process::exit(if failures == 0 { 0 } else { 1 });
    }

    // `replay` is a standalone subcommand: it re-drives the pinned replay
    // deployment from recorded workload traces (a `.tltr` file via --trace, or
    // the whole in-memory corpus) and emits the cbp-style size/throughput
    // table. `--write-corpus <dir>` regenerates the committed corpus instead.
    if selected.iter().any(|s| s == "replay") {
        if selected.len() > 1 {
            eprintln!("error: 'replay' cannot be combined with other selectors");
            usage();
        }
        let code = replay_cmd(
            replay_trace.as_deref(),
            write_corpus.as_deref(),
            write_million.as_deref(),
            stream,
            rate_scale,
            json_path.as_deref(),
        );
        std::process::exit(code);
    }
    if replay_trace.is_some()
        || write_corpus.is_some()
        || write_million.is_some()
        || stream
        || rate_scale.is_some()
    {
        eprintln!(
            "error: --trace/--stream/--write-corpus/--write-million/--rate-scale only apply \
             to 'replay'"
        );
        usage();
    }

    for sel in &selected {
        if sel != "all" && !EXPERIMENTS.contains(&sel.as_str()) {
            eprintln!("error: unknown experiment '{sel}'");
            usage();
        }
    }
    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");
    let want = |name: &str| run_all || selected.iter().any(|s| s == name);
    // chaos has already returned; of the table selectors only the serving
    // study is instrumented.
    if (trace_out.is_some() || metrics) && !want("serving") {
        eprintln!("error: --trace-out/--metrics apply to the serving and chaos subcommands");
        usage();
    }
    if disagg && !want("serving") {
        eprintln!("error: --disagg applies to the serving subcommand");
        usage();
    }

    println!("TLT reproduction experiment harness (scale: {scale:?})");
    let mut report = Report::new();

    if want("fig1") {
        fig1(scale, &mut report);
    }
    if want("fig2") {
        fig2(scale, &mut report);
    }
    if want("fig11") {
        fig11(scale, &mut report);
    }
    if want("fig12") {
        fig12(scale, &mut report);
    }
    if want("fig13") {
        fig13(&mut report);
    }
    if want("table1") {
        table1(&mut report);
    }
    if want("table2") {
        table2(&mut report);
    }
    if want("table3") {
        table3(scale, &mut report);
    }
    if want("table4") {
        table4(&mut report);
    }
    if want("table5") {
        table5(&mut report);
    }
    if want("fig14") {
        fig14(&mut report);
    }
    if want("fig15") {
        fig15(scale, &mut report);
    }
    // Table 6 and Figure 16 come from the same token-level experiment; run it once
    // if either (or both) is selected.
    if want("table6") || want("fig16") {
        table6_fig16(scale, &mut report);
    }
    if want("fig17") {
        fig17(&mut report);
    }
    if want("table7") {
        table7(scale, &mut report);
    }
    if want("table8") {
        table8(scale, &mut report);
    }
    if want("serving") {
        serving(
            scale,
            &mut report,
            prefix_share,
            disagg,
            trace_out.as_deref(),
            metrics,
        );
    }

    if let Some(path) = json_path {
        match report.write_json(&path) {
            Ok(()) => println!("\nwrote {} tables as JSON to {path}", report.num_tables()),
            Err(e) => {
                eprintln!("error: failed to write JSON to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Figure 1(a): response-length distribution and RL step time breakdown.
fn fig1(scale: Scale, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(1);
    let dist = LengthDistribution::paper_fig1();
    let n = if scale == Scale::Full { 20_000 } else { 2_000 };
    let lengths = dist.sample_many(n, &mut rng);
    let stats = LengthStats::from_lengths(&lengths);
    let (edges, pdf) = length_histogram(&lengths, 30_000, 15);
    let mut t = Table::new(
        "Figure 1(a) — rollout response-length PDF (max 30K)",
        &["length <=", "fraction"],
    );
    for (e, f) in edges.iter().zip(pdf.iter()) {
        t.add_row(vec![format!("{e}"), format!("{f:.4}")]);
    }
    report.add(t);
    println!(
        "length stats: p50={:.0} p75={:.0} p95={:.0} max={} (under-utilised fraction {:.2})",
        stats.p50,
        stats.p75,
        stats.p95,
        stats.max,
        stats.underutilized_fraction()
    );

    let config = e2e_config(ModelSpec::qwen2_5_7b(), paper_testbed(), scale);
    let verl = run_experiment(SystemKind::Verl, &config);
    let ours = run_experiment(SystemKind::Tlt, &config);
    let mut t = Table::new(
        "Figure 1(a) — normalized RL step time breakdown",
        &["system", "rollout", "other", "rollout fraction"],
    );
    for r in [&verl, &ours] {
        let b = r.mean_breakdown();
        let total = b.total_s();
        t.add_row(vec![
            r.system.name().to_string(),
            format!("{:.2}", b.rollout_s / total),
            format!("{:.2}", (b.inference_s + b.training_s + b.other_s) / total),
            format!("{:.2}", b.rollout_fraction()),
        ]);
    }
    report.add(t);
}

/// Figure 2: ByteDance-style production trace.
fn fig2(scale: Scale, report: &mut Report) {
    let config = TraceConfig {
        num_steps: if scale == Scale::Full { 385 } else { 60 },
        responses_per_step: if scale == Scale::Full { 512 } else { 128 },
        length_cap: 20_480,
        seed: 2026,
    };
    let trace = synthesize_bytedance_trace(config);
    let summary = TraceSummary::from_trace(&trace, config.length_cap);
    let mut t = Table::new(
        "Figure 2 — synthesised production trace (per-step percentiles, every 32nd step)",
        &["step", "p50", "p75", "max"],
    );
    for s in trace.iter().step_by(32) {
        t.add_row(vec![
            format!("{}", s.step),
            format!("{:.0}", s.stats.p50),
            format!("{:.0}", s.stats.p75),
            format!("{}", s.stats.max),
        ]);
    }
    report.add(t);
    println!(
        "steps hitting the {}-token cap: {:.0}% | mean under-utilised fraction: {:.2}",
        config.length_cap,
        summary.steps_hitting_cap * 100.0,
        summary.mean_underutilized
    );
}

/// Figure 11: end-to-end training speed across systems, models and GPU types.
fn fig11(scale: Scale, report: &mut Report) {
    for gpu in [GpuType::H100, GpuType::A100] {
        let cluster = ClusterConfig {
            gpu_type: gpu,
            ..paper_testbed()
        };
        let mut t = Table::new(
            &format!(
                "Figure 11 — end-to-end training speed, {} x64",
                gpu.spec().name
            ),
            &[
                "model",
                "Open-R1",
                "VeRL",
                "TLT-Base",
                "TLT (Ours)",
                "TLT speedup vs VeRL",
            ],
        );
        let models = if scale == Scale::Full {
            ModelSpec::paper_targets()
        } else {
            vec![ModelSpec::qwen2_5_7b(), ModelSpec::qwen2_5_32b()]
        };
        for model in models {
            let mut config = e2e_config(model.clone(), cluster, scale);
            // Larger models use a larger TP degree, as in the paper.
            config.cluster.tp = if model.params > 5e10 {
                8
            } else if model.params > 2e10 {
                4
            } else {
                2
            };
            let results = run_comparison(&config);
            let verl = results
                .iter()
                .find(|r| r.system == SystemKind::Verl)
                .expect("verl present")
                .throughput_tokens_per_s;
            let norm = |k: SystemKind| {
                results
                    .iter()
                    .find(|r| r.system == k)
                    .map(|r| r.throughput_tokens_per_s / verl)
                    .unwrap_or(0.0)
            };
            t.add_row(vec![
                model.name.clone(),
                format!("{:.2}", norm(SystemKind::OpenR1)),
                format!("{:.2}", norm(SystemKind::Verl)),
                format!("{:.2}", norm(SystemKind::TltBase)),
                format!("{:.2}", norm(SystemKind::Tlt)),
                format!("{:.2}x", norm(SystemKind::Tlt)),
            ]);
        }
        report.add(t);
    }
}

/// Figure 12: reward curves of VeRL vs TLT (token-level tiny-model RL).
fn fig12(scale: Scale, report: &mut Report) {
    let steps = if scale == Scale::Full { 12 } else { 4 };
    let mut base = TokenExperimentConfig::small(false, false);
    base.num_steps = steps;
    base.prompts_per_step = 8;
    let (verl, _, _) = run_token_experiment(&base);
    let mut ours = TokenExperimentConfig::small(true, true);
    ours.num_steps = steps;
    ours.prompts_per_step = 8;
    let (tlt, _, _) = run_token_experiment(&ours);
    let mut t = Table::new(
        "Figure 12 — average reward per RL step (tiny-model substrate)",
        &[
            "step",
            "VeRL (vanilla rollouts)",
            "TLT (speculative rollouts)",
        ],
    );
    for (i, (a, b)) in verl
        .reward_curve
        .iter()
        .zip(tlt.reward_curve.iter())
        .enumerate()
    {
        t.add_row(vec![format!("{i}"), format!("{a:.3}"), format!("{b:.3}")]);
    }
    report.add(t);
    println!(
        "mean reward: VeRL {:.3} vs TLT {:.3} (losslessness: same learning signal)",
        verl.reward_curve.iter().sum::<f64>() / verl.reward_curve.len() as f64,
        tlt.reward_curve.iter().sum::<f64>() / tlt.reward_curve.len() as f64
    );
}

/// Figure 13: accept length and speedup vs draft depth and tokens-to-verify.
fn fig13(report: &mut Report) {
    let cost = qwen32b_h100_tp4();
    let drafter = eagle_drafter_of(&cost);
    let acceptance = adaptive_acceptance();
    let mut t = Table::new(
        "Figure 13 — effect of SD hyperparameters (Qwen-32B, TP=4, bs=1, topK=8)",
        &[
            "draft depth",
            "tokens to verify",
            "accept length",
            "speedup",
        ],
    );
    for &depth in &[2usize, 4, 6, 8, 10, 12] {
        for &verify in &[16usize, 32, 48, 64] {
            let strategy = SdStrategy {
                draft_depth: depth,
                top_k: 8,
                tokens_to_verify: verify,
            };
            let accept = acceptance.expected_accept_len_tree(depth, 8, verify);
            let speedup = fixed_batch_speedup(&cost, &drafter, &acceptance, 1, strategy, 4096);
            t.add_row(vec![
                format!("{depth}"),
                format!("{verify}"),
                format!("{accept:.2}"),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    report.add(t);
}

/// Table 1: effect of topK.
fn table1(report: &mut Report) {
    let cost = qwen32b_h100_tp4();
    let drafter = eagle_drafter_of(&cost);
    let acceptance = adaptive_acceptance();
    let mut t = Table::new(
        "Table 1 — effect of topK (depth=12, verify=64, bs=1)",
        &["topK", "accept length", "speedup"],
    );
    for &k in &[4usize, 6, 8, 10, 12, 16] {
        let strategy = SdStrategy {
            draft_depth: 12,
            top_k: k,
            tokens_to_verify: 64,
        };
        let accept = acceptance.expected_accept_len_tree(12, k, 64);
        let speedup = fixed_batch_speedup(&cost, &drafter, &acceptance, 1, strategy, 4096);
        t.add_row(vec![
            format!("{k}"),
            format!("{accept:.2}"),
            format!("{speedup:.2}x"),
        ]);
    }
    report.add(t);
}

/// Table 2: rollout throughput with/without SD across GPU types.
fn table2(report: &mut Report) {
    let mut t = Table::new(
        "Table 2 — rollout throughput (tokens/s), Qwen2.5-7B, bs=1, TP=1",
        &["GPU", "w/ SD", "w/o SD", "speedup"],
    );
    let strategy = SdStrategy {
        draft_depth: 8,
        top_k: 8,
        tokens_to_verify: 48,
    };
    for gpu in GpuType::table2_set() {
        let cost = qwen7b_on(gpu);
        let drafter = eagle_drafter_of(&cost);
        let (with_sd, without) =
            single_request_throughput(&cost, &drafter, &adaptive_acceptance(), strategy, 256, 4096);
        t.add_row(vec![
            gpu.spec().name.to_string(),
            format!("{with_sd:.0}"),
            format!("{without:.0}"),
            format!("{:.2}x", with_sd / without),
        ]);
    }
    report.add(t);
}

/// Table 3: end-to-end speedup across cluster scales.
fn table3(scale: Scale, report: &mut Report) {
    let mut t = Table::new(
        "Table 3 — end-to-end TLT speedup over VeRL across cluster scales",
        &["model", "1 node", "2 nodes", "4 nodes", "8 nodes"],
    );
    for (model, tp) in [
        (ModelSpec::qwen2_5_7b(), 2usize),
        (ModelSpec::qwen2_5_32b(), 8),
    ] {
        let mut cells = vec![model.name.clone()];
        for nodes in [1usize, 2, 4, 8] {
            let cluster = ClusterConfig {
                num_nodes: nodes,
                gpus_per_node: 8,
                gpu_type: GpuType::H100,
                tp,
                internode_gbps: 50.0,
            };
            let config = e2e_config(model.clone(), cluster, scale);
            if !cluster.fits(&model, config.requests_per_step(), 32_768) {
                cells.push("OOM".to_string());
                continue;
            }
            let verl = run_experiment(SystemKind::Verl, &config);
            let ours = run_experiment(SystemKind::Tlt, &config);
            cells.push(format!("{:.2}x", ours.speedup_over(&verl)));
        }
        t.add_row(cells);
    }
    report.add(t);
}

/// Table 4: SD speedup vs batch size and tokens-to-verify.
fn table4(report: &mut Report) {
    let cost = qwen32b_h100_tp4();
    let drafter = eagle_drafter_of(&cost);
    let acceptance = adaptive_acceptance();
    let mut t = Table::new(
        "Table 4 — SD speedup vs batch size (Qwen-32B, TP=4, depth=10, topK=8)",
        &[
            "batch size",
            "verify=16",
            "verify=32",
            "verify=48",
            "verify=64",
        ],
    );
    for &batch in &[1usize, 2, 4, 8, 16, 32] {
        let mut cells = vec![format!("{batch}")];
        for &verify in &[16usize, 32, 48, 64] {
            let strategy = SdStrategy {
                draft_depth: 10,
                top_k: 8,
                tokens_to_verify: verify,
            };
            let speedup = fixed_batch_speedup(&cost, &drafter, &acceptance, batch, strategy, 4096);
            cells.push(format!("{speedup:.2}x"));
        }
        t.add_row(cells);
    }
    report.add(t);
}

/// Table 5: CUDAGraph memory footprint.
fn table5(report: &mut Report) {
    let cost = LlmCostModel::new(ModelSpec::llama3_8b(), GpuType::H100.spec(), 4);
    let drafter = cost.model.eagle_drafter();
    let strategies = SdStrategy::default_set();
    let buckets = default_batch_buckets();
    let mut t = Table::new(
        "Table 5 — CUDAGraph memory footprint (Llama-3-8B, TP=4, 4 strategies)",
        &["method", "memory (GB)", "captured graphs"],
    );
    for (name, mode) in [
        ("Single Strategy", CaptureMode::SingleStrategy),
        (
            "Vanilla Multiple Strategies",
            CaptureMode::VanillaMultiStrategy,
        ),
        ("Bucketed CUDAGraph", CaptureMode::Bucketed),
    ] {
        let pool = CudaGraphPool::plan(mode, &strategies, &buckets, &cost, &drafter);
        t.add_row(vec![
            name.to_string(),
            format!("{:.2}", pool.total_memory_gb()),
            format!("{}", pool.num_graphs()),
        ]);
    }
    report.add(t);
}

/// Figure 14: adaptive SD case study (running-request profile).
fn fig14(report: &mut Report) {
    let cost = qwen32b_h100_tp4();
    let mut rng = StdRng::seed_from_u64(14);
    let dist = LengthDistribution::LongTailMixture {
        mu: 7.0,
        sigma: 0.9,
        truncation_mass: 0.02,
        max_len: 16_384,
    };
    let lengths = dist.sample_many(128, &mut rng);
    let baseline = simulate_rollout(&SimRolloutConfig::vanilla(cost.clone()), &lengths);
    let adaptive = simulate_rollout(
        &SimRolloutConfig::vanilla(cost.clone()).with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        }),
        &lengths,
    );
    let no_elastic = simulate_rollout(
        &SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Static {
            strategy: SdStrategy::default(),
            threshold: usize::MAX,
        }),
        &lengths,
    );
    let mut t = Table::new(
        "Figure 14 — rollout of 128 requests (Qwen-32B, TP=4)",
        &[
            "configuration",
            "rollout time (s)",
            "speedup",
            "SD activation (s)",
        ],
    );
    t.add_row(vec![
        "Baseline (no SD)".to_string(),
        format!("{:.0}", baseline.total_time_s),
        "1.00x".to_string(),
        "-".to_string(),
    ]);
    t.add_row(vec![
        "Always-on SD (ablation)".to_string(),
        format!("{:.0}", no_elastic.total_time_s),
        format!("{:.2}x", no_elastic.speedup_over(&baseline)),
        "0".to_string(),
    ]);
    t.add_row(vec![
        "Adaptive SD (Ours)".to_string(),
        format!("{:.0}", adaptive.total_time_s),
        format!("{:.2}x", adaptive.speedup_over(&baseline)),
        format!("{:.0}", adaptive.sd_activation_time_s.unwrap_or(0.0)),
    ]);
    report.add(t);
    let mut timeline = Table::new(
        "Figure 14 — running-request timeline (adaptive SD, sampled)",
        &["time (s)", "running requests", "SD active"],
    );
    for p in adaptive
        .timeline
        .iter()
        .step_by(adaptive.timeline.len().max(20) / 20)
    {
        timeline.add_row(vec![
            format!("{:.0}", p.time_s),
            format!("{}", p.running_requests),
            format!("{}", p.sd_active),
        ]);
    }
    report.add(timeline);
}

/// Figure 15: drafter accuracy during adaptive training.
fn fig15(scale: Scale, report: &mut Report) {
    let mut config = TokenExperimentConfig::small(true, true);
    config.num_steps = if scale == Scale::Full { 10 } else { 4 };
    config.drafter_iterations_per_step = if scale == Scale::Full { 12 } else { 6 };
    config.prompts_per_step = 8;
    let (token_report, _, _) = run_token_experiment(&config);
    let mut t = Table::new(
        "Figure 15 — drafter top-3 accuracy during adaptive training",
        &[
            "trainer iteration",
            "top-3 accuracy",
            "right after target update",
        ],
    );
    for p in &token_report.drafter_accuracy {
        t.add_row(vec![
            format!("{}", p.iteration),
            format!("{:.3}", p.top3_accuracy),
            format!("{}", p.after_target_update),
        ]);
    }
    report.add(t);
    let first = token_report
        .drafter_accuracy
        .first()
        .map(|p| p.top3_accuracy)
        .unwrap_or(0.0);
    let last = token_report
        .drafter_accuracy
        .last()
        .map(|p| p.top3_accuracy)
        .unwrap_or(0.0);
    println!("top-3 accuracy trend: {first:.3} -> {last:.3}");
}

/// Table 6 + Figure 16: adaptive vs vanilla drafter against the base and post-RL
/// targets (accept length and per-position accept rates).
fn table6_fig16(scale: Scale, report: &mut Report) {
    let model_config = ModelConfig::tiny();
    let mut target = TinyLm::new(model_config, 60);
    let mut task_gen = TaskGenerator::new(model_config.vocab_size);
    let mut rng = StdRng::seed_from_u64(61);
    let sampling = SamplingParams {
        temperature: 0.9,
        top_k: None,
    };
    let strategy = SdStrategy {
        draft_depth: 5,
        top_k: 1,
        tokens_to_verify: 5,
    };
    let warmup_iters = if scale == Scale::Full { 60 } else { 25 };
    let rl_steps = if scale == Scale::Full { 6 } else { 3 };

    // Warm up a drafter against the base target on its own rollouts.
    let mut drafter_trainer = DrafterTrainer::new(&target, TrainerConfig::default(), 62);
    let mut buffer = DataBuffer::new(DataBufferConfig::default());
    let build_samples = |target: &TinyLm,
                         task_gen: &mut TaskGenerator,
                         rng: &mut StdRng,
                         step: u64| {
        let tasks = task_gen.generate_batch(6, rng);
        tasks
            .iter()
            .enumerate()
            .filter_map(|(i, task)| {
                let prompt = task.prompt_tokens();
                let gen =
                    vanilla_generate(target, &prompt, 24, sampling, Some(task.vocab.eos()), rng);
                if gen.tokens.len() < 3 {
                    return None;
                }
                let mut tokens = prompt;
                tokens.extend_from_slice(&gen.tokens);
                Some(TrainingSample::from_rollout(
                    target,
                    FeatureSource::LastLayer,
                    &tokens,
                    gen.tokens.len(),
                    step,
                    i as u64,
                ))
            })
            .collect::<Vec<_>>()
    };
    for s in build_samples(&target, &mut task_gen, &mut rng, 0) {
        buffer.push(s);
    }
    for _ in 0..warmup_iters {
        let batch = buffer.sample_batch(4, &mut rng);
        drafter_trainer.train_iteration(&target, &batch);
    }
    let target_base = target.clone();
    let vanilla_drafter = drafter_trainer.drafter.clone();

    // RL-train the target; keep adapting the adaptive drafter on fresh rollouts.
    let mut policy_trainer = PolicyTrainer::new(target.reference_copy(), RlConfig::default());
    for step in 0..rl_steps {
        let tasks = task_gen.generate_batch(6, &mut rng);
        let mut groups = Vec::new();
        for task in &tasks {
            let prompt = task.prompt_tokens();
            let mut responses = Vec::new();
            let mut rewards = Vec::new();
            for _ in 0..4 {
                let gen = vanilla_generate(
                    &target,
                    &prompt,
                    24,
                    sampling,
                    Some(task.vocab.eos()),
                    &mut rng,
                );
                rewards.push(task.reward(&gen.tokens));
                responses.push(gen.tokens);
            }
            groups.push(RolloutGroup {
                prompt,
                responses,
                rewards,
            });
        }
        policy_trainer.train_step(&mut target, &groups);
        buffer.advance_step();
        for s in build_samples(&target, &mut task_gen, &mut rng, step as u64 + 1) {
            buffer.push(s);
        }
        for _ in 0..warmup_iters / 2 {
            let batch = buffer.sample_batch(4, &mut rng);
            drafter_trainer.train_iteration(&target, &batch);
        }
    }
    let target_r = target;
    let adaptive_drafter = drafter_trainer.drafter;

    // Measurement prompts: RL-training distribution and a harder "downstream" set.
    let rl_prompts: Vec<Vec<u32>> = task_gen
        .generate_batch(6, &mut rng)
        .iter()
        .map(|t| t.prompt_tokens())
        .collect();
    let mut downstream_gen = TaskGenerator::new(model_config.vocab_size).with_operand_range(4, 5);
    let downstream_prompts: Vec<Vec<u32>> = downstream_gen
        .generate_batch(6, &mut rng)
        .iter()
        .map(|t| t.prompt_tokens())
        .collect();

    let mut t = Table::new(
        "Table 6 — accept length of the adaptive drafter (tiny-model substrate)",
        &["data", "target", "vanilla drafter", "adaptive drafter"],
    );
    let mut fig16_rows: Vec<(String, Vec<f64>)> = Vec::new();
    for (data_name, prompts) in [
        ("RL training", &rl_prompts),
        ("Downstream", &downstream_prompts),
    ] {
        for (target_name, tgt) in [("Target-Base", &target_base), ("Target-R", &target_r)] {
            let mut rng_a = StdRng::seed_from_u64(99);
            let (rates_v, accept_v) = measure_acceptance(
                tgt,
                &SpecDrafter::Learned(&vanilla_drafter),
                prompts,
                24,
                strategy,
                SamplingParams::greedy(),
                &mut rng_a,
            );
            let mut rng_b = StdRng::seed_from_u64(99);
            let (rates_a, accept_a) = measure_acceptance(
                tgt,
                &SpecDrafter::Learned(&adaptive_drafter),
                prompts,
                24,
                strategy,
                SamplingParams::greedy(),
                &mut rng_b,
            );
            t.add_row(vec![
                data_name.to_string(),
                target_name.to_string(),
                format!("{accept_v:.2}"),
                format!("{accept_a:.2}"),
            ]);
            if data_name == "RL training" && target_name == "Target-R" {
                fig16_rows.push(("Vanilla drafter".to_string(), rates_v));
                fig16_rows.push(("Adaptive drafter".to_string(), rates_a));
            }
        }
    }
    report.add(t);

    let mut f = Table::new(
        "Figure 16 — accept rate by drafted position (vs Target-R)",
        &["drafter", "pos 1", "pos 2", "pos 3", "pos 4", "pos 5"],
    );
    for (name, rates) in fig16_rows {
        let mut cells = vec![name];
        for i in 0..5 {
            cells.push(format!("{:.2}", rates.get(i).copied().unwrap_or(0.0)));
        }
        f.add_row(cells);
    }
    report.add(f);
}

/// Figure 17: selective asynchronous checkpointing latency and sequence packing.
fn fig17(report: &mut Report) {
    let target = TinyLm::new(ModelConfig::tiny(), 70);
    let drafter = tlt_draft::DraftModel::new(&target, FeatureSource::LastLayer, 71);
    let mut store = CheckpointStore::new();
    let mut t = Table::new(
        "Figure 17(a) — drafter checkpoint cost (tiny-model substrate)",
        &[
            "mode",
            "training-thread blocking (us)",
            "bytes written",
            "async",
        ],
    );
    for mode in CheckpointMode::all() {
        // Take the median of several checkpoints to smooth out thread-spawn jitter.
        let mut blocking: Vec<u64> = (0..5)
            .map(|_| store.checkpoint(mode, &drafter, &target).blocking_us)
            .collect();
        blocking.sort_unstable();
        store.wait_for_pending();
        let report = store.checkpoint(mode, &drafter, &target);
        store.wait_for_pending();
        t.add_row(vec![
            mode.name().to_string(),
            format!("{}", blocking[blocking.len() / 2]),
            format!("{}", report.bytes_written),
            format!("{}", report.asynchronous),
        ]);
    }
    report.add(t);

    let mut rng = StdRng::seed_from_u64(72);
    let dist = LengthDistribution::LongTailMixture {
        mu: 5.5,
        sigma: 1.0,
        truncation_mass: 0.05,
        max_len: 4096,
    };
    let lengths = dist.sample_many(256, &mut rng);
    let stats = packing_stats(&lengths, 8, 4096);
    let mut p = Table::new(
        "Figure 17(b) — sequence packing vs padded batching",
        &["method", "tokens processed", "compute utilisation"],
    );
    p.add_row(vec![
        "Vanilla batching".to_string(),
        format!("{}", stats.padded_tokens),
        format!("{:.2}", stats.padded_efficiency),
    ]);
    p.add_row(vec![
        "Sequence packing".to_string(),
        format!("{}", stats.packed_tokens),
        format!("{:.2}", stats.packed_efficiency),
    ]);
    report.add(p);
    println!("packing throughput improvement: {:.2}x", stats.speedup());
}

/// Table 7: comparison of drafter training strategies.
fn table7(scale: Scale, report: &mut Report) {
    let model_config = ModelConfig::tiny();
    let target = TinyLm::new(model_config, 80);
    let mut task_gen = TaskGenerator::new(model_config.vocab_size);
    let mut rng = StdRng::seed_from_u64(81);
    let sampling = SamplingParams {
        temperature: 0.9,
        top_k: None,
    };
    let iters = if scale == Scale::Full { 50 } else { 20 };

    // Shared training data from target rollouts.
    let make_samples = |source: FeatureSource, rng: &mut StdRng, task_gen: &mut TaskGenerator| {
        task_gen
            .generate_batch(8, rng)
            .iter()
            .enumerate()
            .filter_map(|(i, task)| {
                let prompt = task.prompt_tokens();
                let gen =
                    vanilla_generate(&target, &prompt, 24, sampling, Some(task.vocab.eos()), rng);
                if gen.tokens.len() < 3 {
                    return None;
                }
                let mut tokens = prompt;
                tokens.extend_from_slice(&gen.tokens);
                Some(TrainingSample::from_rollout(
                    &target,
                    source,
                    &tokens,
                    gen.tokens.len(),
                    0,
                    i as u64,
                ))
            })
            .collect::<Vec<_>>()
    };

    let cost = qwen7b_on(GpuType::H100);
    let drafter_spec = eagle_drafter_of(&cost);
    let mut t = Table::new(
        "Table 7 — drafter training strategies (Qwen-7B cost model + tiny-model acceptance)",
        &[
            "method",
            "accept length",
            "est. throughput (tok/s)",
            "speedup",
            "training cost",
        ],
    );
    // Baseline: no SD.
    let base_throughput = 1.0 / cost.decode_step_time(1, 4096);
    t.add_row(vec![
        "Base (No-SD)".to_string(),
        "1.00".to_string(),
        format!("{base_throughput:.0}"),
        "1.00x".to_string(),
        "-".to_string(),
    ]);
    let strategies = [
        TrainingStrategy::Hass { ttt_steps: 3 },
        TrainingStrategy::Eagle3 { ttt_steps: 7 },
        TrainingStrategy::Eagle,
    ];
    for strategy in strategies {
        let config = TrainerConfig {
            strategy,
            ..TrainerConfig::default()
        };
        let mut trainer = DrafterTrainer::new(&target, config, 82);
        let samples = make_samples(strategy.feature_source(), &mut rng, &mut task_gen);
        let refs: Vec<&TrainingSample> = samples.iter().collect();
        for _ in 0..iters {
            trainer.train_iteration(&target, &refs);
        }
        // Acceptance measurement only supports last-layer drafters at token level;
        // for EAGLE-3 derive the profile from its top-3 accuracy instead.
        let accept = if strategy.feature_source() == FeatureSource::LastLayer {
            let prompts: Vec<Vec<u32>> = task_gen
                .generate_batch(4, &mut rng)
                .iter()
                .map(|t| t.prompt_tokens())
                .collect();
            let (_, accept) = measure_acceptance(
                &target,
                &SpecDrafter::Learned(&trainer.drafter),
                &prompts,
                24,
                SdStrategy {
                    draft_depth: 5,
                    top_k: 1,
                    tokens_to_verify: 5,
                },
                SamplingParams::greedy(),
                &mut rng,
            );
            accept
        } else {
            let (_, top3) = trainer.evaluate(&target, &refs);
            AcceptanceProfile::parametric(top3.max(0.05), 0.9, 8).expected_accept_len_linear(5)
        };
        let spec_step = cost.speculative_step_time(&drafter_spec, 1, 6, 48, 4096);
        let throughput = accept / spec_step;
        t.add_row(vec![
            strategy.name().to_string(),
            format!("{accept:.2}"),
            format!("{throughput:.0}"),
            format!("{:.2}x", throughput / base_throughput),
            format!("{:.0}x", strategy.relative_training_cost()),
        ]);
    }
    report.add(t);
}

/// Table 8: impact of OSD-style training on different draft models.
fn table8(scale: Scale, report: &mut Report) {
    let model_config = ModelConfig::tiny();
    let target = TinyLm::new(model_config, 90);
    let mut task_gen = TaskGenerator::new(model_config.vocab_size);
    let mut rng = StdRng::seed_from_u64(91);
    let sampling = SamplingParams {
        temperature: 0.9,
        top_k: None,
    };
    let iters = if scale == Scale::Full { 40 } else { 15 };

    let samples: Vec<TrainingSample> = task_gen
        .generate_batch(8, &mut rng)
        .iter()
        .enumerate()
        .filter_map(|(i, task)| {
            let prompt = task.prompt_tokens();
            let gen = vanilla_generate(
                &target,
                &prompt,
                24,
                sampling,
                Some(task.vocab.eos()),
                &mut rng,
            );
            if gen.tokens.len() < 3 {
                return None;
            }
            let mut tokens = prompt;
            tokens.extend_from_slice(&gen.tokens);
            Some(TrainingSample::from_rollout(
                &target,
                FeatureSource::LastLayer,
                &tokens,
                gen.tokens.len(),
                0,
                i as u64,
            ))
        })
        .collect();
    let refs: Vec<&TrainingSample> = samples.iter().collect();
    let prompts: Vec<Vec<u32>> = task_gen
        .generate_batch(4, &mut rng)
        .iter()
        .map(|t| t.prompt_tokens())
        .collect();
    let accept_of = |drafter: &tlt_draft::DraftModel, rng: &mut StdRng| {
        let (_, accept) = measure_acceptance(
            &target,
            &SpecDrafter::Learned(drafter),
            &prompts,
            24,
            SdStrategy {
                draft_depth: 5,
                top_k: 1,
                tokens_to_verify: 5,
            },
            SamplingParams::greedy(),
            rng,
        );
        accept
    };

    let mut t = Table::new(
        "Table 8 — impact of OSD-style training (tiny-model substrate)",
        &[
            "draft model",
            "original accept len",
            "trained accept len",
            "+OSD accept len",
        ],
    );
    for (name, base_strategy) in [
        ("SFT small-model style", TrainingStrategy::Sft),
        ("Eagle", TrainingStrategy::Eagle),
    ] {
        let untrained = tlt_draft::DraftModel::new(&target, FeatureSource::LastLayer, 92);
        let original = accept_of(&untrained, &mut rng);

        let mut trained = DrafterTrainer::new(
            &target,
            TrainerConfig {
                strategy: base_strategy,
                ..TrainerConfig::default()
            },
            92,
        );
        for _ in 0..iters {
            trained.train_iteration(&target, &refs);
        }
        let trained_accept = accept_of(&trained.drafter, &mut rng);

        let mut osd = DrafterTrainer::new(
            &target,
            TrainerConfig {
                strategy: base_strategy,
                ..TrainerConfig::default()
            },
            92,
        );
        for _ in 0..iters {
            osd.train_iteration(&target, &refs);
        }
        let mut osd_trainer = DrafterTrainer::with_drafter(
            osd.drafter.clone(),
            TrainerConfig {
                strategy: TrainingStrategy::Osd,
                ..TrainerConfig::default()
            },
        );
        for _ in 0..iters / 2 {
            osd_trainer.train_iteration(&target, &refs);
        }
        let osd_accept = accept_of(&osd_trainer.drafter, &mut rng);

        t.add_row(vec![
            name.to_string(),
            format!("{original:.2}"),
            format!("{trained_accept:.2}"),
            format!("{osd_accept:.2}"),
        ]);
    }
    report.add(t);
}

/// Chaos suite: runs the pinned fault-injection scenario matrix and reports the
/// invariant verdict per scenario. Any violated scenario prints its
/// flight-recorder postmortem; `--trace-out` exports every scenario's retained
/// events as one sectioned Chrome trace. Returns the number of failing
/// scenarios.
fn chaos(json_path: Option<&str>, trace_out: Option<&str>, metrics: bool) -> usize {
    use tlt::chaos::{
        chaos_summary_rows, disagg_summary_rows, run_chaos_matrix, run_disagg_chaos_matrix,
        CHAOS_SUMMARY_HEADER, DISAGG_SUMMARY_HEADER,
    };
    println!("TLT chaos suite: pinned fault-injection scenario matrix");
    let outcomes = run_chaos_matrix();
    let disagg_outcomes = run_disagg_chaos_matrix();
    let mut report = Report::new();
    let mut t = Table::new(
        "Chaos — pinned scenario matrix (invariants: conservation, KV block budget, \
         KV-pool conservation, coordinator, losslessness, checkpoint guard, \
         determinism, drain)",
        &CHAOS_SUMMARY_HEADER,
    );
    for row in chaos_summary_rows(&outcomes) {
        t.add_row(row);
    }
    report.add(t);
    let mut dt = Table::new(
        "Chaos — disaggregated cluster matrix (mid-transfer crashes, autoscale drain; \
         invariants: conservation, KV block budget, KV-pool conservation, \
         determinism, drain)",
        &DISAGG_SUMMARY_HEADER,
    );
    for row in disagg_summary_rows(&disagg_outcomes) {
        dt.add_row(row);
    }
    report.add(dt);
    // What both matrices' outcomes have in common, whatever their report type.
    fn verdict<R>(
        o: &tlt::chaos::ChaosOutcome<R>,
    ) -> (
        &str,
        &tlt::chaos::InvariantReport,
        &[tlt_obs::ObsEvent],
        Option<&str>,
    ) {
        (&o.name, &o.invariants, &o.trace, o.postmortem.as_deref())
    }
    let verdicts: Vec<_> = outcomes
        .iter()
        .map(verdict)
        .chain(disagg_outcomes.iter().map(verdict))
        .collect();
    if metrics {
        let mut m = Table::new(
            "Chaos — flight recorder (--metrics)",
            &["scenario", "trace events", "postmortem"],
        );
        for (name, _, trace, postmortem) in &verdicts {
            m.add_row(vec![
                name.to_string(),
                format!("{}", trace.len()),
                if postmortem.is_some() {
                    "dumped".to_string()
                } else {
                    "-".to_string()
                },
            ]);
        }
        report.add(m);
    }
    let mut failures = 0usize;
    for (name, invariants, _, postmortem) in &verdicts {
        if !invariants.passed() {
            failures += 1;
            for v in &invariants.violations {
                eprintln!("FAIL {}: [{}] {}", name, v.invariant, v.detail);
            }
            if let Some(postmortem) = postmortem {
                eprint!("{postmortem}");
            }
        }
    }
    if let Some(path) = trace_out {
        let sections: Vec<(&str, &[tlt_obs::ObsEvent])> =
            verdicts.iter().map(|v| (v.0, v.2)).collect();
        write_trace(path, &tlt_obs::chrome_trace_sections(&sections));
    }
    if let Some(path) = json_path {
        match report.write_json(path) {
            Ok(()) => println!("\nwrote the chaos matrix as JSON to {path}"),
            Err(e) => {
                eprintln!("error: failed to write JSON to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let total = outcomes.len() + disagg_outcomes.len();
    println!(
        "\n{} scenarios ({} monolithic + {} disaggregated), {} passed, {} failed",
        total,
        outcomes.len(),
        disagg_outcomes.len(),
        total - failures,
        failures
    );
    failures
}

/// Replicas behind the pinned replay deployment (see [`tlt::replay_deployment`]).
const REPLAY_REPLICAS: usize = 2;

/// Trace-driven replay: re-drives the pinned deployment from recorded `.tltr`
/// workload traces and prints the cbp-style size/throughput table. The table
/// (and its `--json` export) contains only sim-deterministic numbers, so a
/// double run is byte-identical — wall-clock overhead goes to a separate
/// print-only table.
fn replay_cmd(
    trace_path: Option<&str>,
    write_corpus: Option<&str>,
    write_million: Option<&str>,
    stream: bool,
    rate_scale: Option<f64>,
    json_path: Option<&str>,
) -> i32 {
    use std::time::Instant;
    use tlt_trace::{CorpusPreset, Trace};

    // --write-million: derive the pinned million-request trace to a file,
    // verify it against the pinned checksum, and exit (CI regenerates it on
    // every run instead of committing the ~6.5 MB artifact).
    if let Some(path) = write_million {
        let file = match std::fs::File::create(path) {
            Ok(file) => file,
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return 1;
            }
        };
        let t0 = Instant::now();
        let checksum = match tlt_trace::write_derived_trace(
            std::io::BufWriter::new(file),
            tlt_trace::MILLION_REQUESTS,
        ) {
            Ok(checksum) => checksum,
            Err(e) => {
                eprintln!("error: failed to derive the million-request trace: {e}");
                return 1;
            }
        };
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!(
            "wrote {path}: {} requests, {bytes} bytes ({:.2} B/req) in {:.2} s, \
             checksum {checksum:#018x}",
            tlt_trace::MILLION_REQUESTS,
            bytes as f64 / tlt_trace::MILLION_REQUESTS as f64,
            t0.elapsed().as_secs_f64(),
        );
        if checksum != tlt_trace::MILLION_CHECKSUM {
            eprintln!(
                "error: derived trace checksum {checksum:#018x} does not match the pinned \
                 {:#018x}",
                tlt_trace::MILLION_CHECKSUM
            );
            return 1;
        }
        return 0;
    }
    if stream {
        return replay_streamed_cmd(trace_path, rate_scale, json_path);
    }

    // --write-corpus: regenerate the committed corpus files and exit.
    if let Some(dir) = write_corpus {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return 1;
        }
        for preset in CorpusPreset::all() {
            let trace = preset.build();
            let stats = trace.stats();
            let path = format!("{dir}/{}", preset.file_name());
            if let Err(e) = trace.write_file(&path) {
                eprintln!("error: failed to write {path}: {e}");
                return 1;
            }
            println!(
                "wrote {path}: {} requests, {} bytes ({:.2} B/req, budget {})",
                stats.requests,
                stats.total_bytes,
                stats.bytes_per_request(),
                preset.size_budget_bytes()
            );
        }
        return 0;
    }

    println!(
        "TLT trace replay (pinned deployment: {REPLAY_REPLICAS} replicas, adaptive SD, paged KV)"
    );
    // Workloads to replay: one trace file, or the whole in-memory corpus.
    // Each entry: (trace, decode seconds, synthesis seconds if known).
    let mut runs: Vec<(Trace, f64, Option<f64>)> = Vec::new();
    match trace_path {
        Some(path) => {
            let t0 = Instant::now();
            let trace = match Trace::read_file(path) {
                Ok(trace) => trace,
                Err(e) => {
                    eprintln!("error: failed to read {path}: {e}");
                    return 1;
                }
            };
            let decode_s = t0.elapsed().as_secs_f64();
            let synth_s = CorpusPreset::from_name(trace.name()).map(|preset| {
                let t0 = Instant::now();
                let _ = preset.build();
                t0.elapsed().as_secs_f64()
            });
            runs.push((trace, decode_s, synth_s));
        }
        None => {
            for preset in CorpusPreset::all() {
                let t0 = Instant::now();
                let trace = preset.build();
                let synth_s = t0.elapsed().as_secs_f64();
                let bytes = trace.to_bytes();
                let t0 = Instant::now();
                let trace = Trace::from_bytes(&bytes).expect("self-encoded trace decodes");
                let decode_s = t0.elapsed().as_secs_f64();
                runs.push((trace, decode_s, Some(synth_s)));
            }
        }
    }
    if let Some(factor) = rate_scale {
        runs = runs
            .into_iter()
            .map(|(trace, decode_s, _)| (trace.rate_scaled(factor), decode_s, None))
            .collect();
    }

    let mut report = Report::new();
    let mut table = Table::new(
        "Trace replay — recorded workloads on the pinned deployment",
        &[
            "workload",
            "requests",
            "size B",
            "B/req",
            "bits/event",
            "tok/s",
            "goodput rps",
            "SLO %",
            "makespan s",
        ],
    );
    let mut timing = Table::new(
        "Replay overhead vs synthesis (wall clock; print-only, not exported)",
        &[
            "workload",
            "synth ms",
            "decode ms",
            "replay ms",
            "decode/synth",
        ],
    );
    let mut total_bytes = 0usize;
    let mut total_requests = 0usize;
    for (trace, decode_s, synth_s) in &runs {
        let stats = trace.stats();
        let t0 = Instant::now();
        let result = tlt::run_replay(trace, REPLAY_REPLICAS);
        let replay_s = t0.elapsed().as_secs_f64();
        total_bytes += stats.total_bytes;
        total_requests += stats.requests;
        table.add_row(vec![
            trace.name().to_string(),
            format!("{}", stats.requests),
            format!("{}", stats.total_bytes),
            format!("{:.2}", stats.bytes_per_request()),
            format!("{:.2}", stats.bits_per_event()),
            format!("{:.1}", result.throughput_tokens_per_s),
            format!("{:.3}", result.goodput_rps),
            format!("{:.1}", result.slo_attainment * 100.0),
            format!("{:.2}", result.makespan_s),
        ]);
        timing.add_row(vec![
            trace.name().to_string(),
            synth_s.map_or_else(|| "-".to_string(), |s| format!("{:.3}", s * 1e3)),
            format!("{:.3}", decode_s * 1e3),
            format!("{:.1}", replay_s * 1e3),
            synth_s.map_or_else(|| "-".to_string(), |s| format!("{:.3}", decode_s / s)),
        ]);
    }
    if runs.len() > 1 {
        table.add_row(vec![
            "TOTAL".to_string(),
            format!("{total_requests}"),
            format!("{total_bytes}"),
            format!("{:.2}", total_bytes as f64 / total_requests.max(1) as f64),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    report.add(table);
    timing.print();

    if let Some(path) = json_path {
        match report.write_json(path) {
            Ok(()) => println!("\nwrote the replay report as JSON to {path}"),
            Err(e) => {
                eprintln!("error: failed to write JSON to {path}: {e}");
                return 1;
            }
        }
    }
    0
}

/// `replay --stream`: drives the pinned deployment from a chunked TLTR
/// decode ([`tlt_trace::TraceReader`]) instead of a materialised arrival
/// vector — constant decode memory regardless of trace length. The exported
/// table contains only sim-deterministic numbers (sizes, counts, report
/// metrics), so a double run is byte-identical; CI diffs two runs' JSON.
fn replay_streamed_cmd(
    trace_path: Option<&str>,
    rate_scale: Option<f64>,
    json_path: Option<&str>,
) -> i32 {
    use std::io::Cursor;
    use std::time::Instant;
    use tlt_trace::{CorpusPreset, TraceReader};

    if rate_scale.is_some() {
        // Transforms are whole-trace rewrites; apply them in-memory and
        // re-encode before streaming.
        eprintln!("error: --rate-scale requires the in-memory replay path");
        return 1;
    }
    println!(
        "TLT trace replay, streamed (pinned deployment: {REPLAY_REPLICAS} replicas, \
         adaptive SD, paged KV)"
    );
    // Workloads: one trace file, or the whole corpus re-encoded to bytes and
    // streamed back through the chunked reader.
    let mut report = Report::new();
    let mut table = Table::new(
        "Trace replay (streamed) — chunked decode on the pinned deployment",
        &[
            "workload",
            "requests",
            "size B",
            "B/req",
            "tok/s",
            "goodput rps",
            "SLO %",
            "makespan s",
        ],
    );
    let mut run_streamed =
        |label: &str,
         result: Result<(u64, u64, tlt_serve::ServeReport), tlt_trace::TraceError>|
         -> bool {
            match result {
                Ok((requests, bytes, report)) => {
                    table.add_row(vec![
                        label.to_string(),
                        format!("{requests}"),
                        format!("{bytes}"),
                        format!("{:.2}", bytes as f64 / requests.max(1) as f64),
                        format!("{:.1}", report.throughput_tokens_per_s),
                        format!("{:.3}", report.goodput_rps),
                        format!("{:.1}", report.slo_attainment * 100.0),
                        format!("{:.2}", report.makespan_s),
                    ]);
                    true
                }
                Err(e) => {
                    eprintln!("error: streamed replay of {label} failed: {e}");
                    false
                }
            }
        };
    match trace_path {
        Some(path) => {
            let t0 = Instant::now();
            let result = TraceReader::<std::fs::File>::open_file(path).and_then(|mut reader| {
                let report = tlt::run_replay_streamed(&mut reader, REPLAY_REPLICAS)?;
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                Ok((reader.decoded(), bytes, report))
            });
            let ok = run_streamed(path, result);
            println!(
                "streamed replay of {path} took {:.2} s",
                t0.elapsed().as_secs_f64()
            );
            if !ok {
                return 1;
            }
        }
        None => {
            for preset in CorpusPreset::all() {
                let bytes = preset.build().to_bytes();
                let size = bytes.len() as u64;
                let result = TraceReader::open(Cursor::new(bytes)).and_then(|mut reader| {
                    let report = tlt::run_replay_streamed(&mut reader, REPLAY_REPLICAS)?;
                    Ok((reader.decoded(), size, report))
                });
                if !run_streamed(preset.name(), result) {
                    return 1;
                }
            }
        }
    }
    report.add(table);

    if let Some(path) = json_path {
        match report.write_json(path) {
            Ok(()) => println!("\nwrote the streamed replay report as JSON to {path}"),
            Err(e) => {
                eprintln!("error: failed to write JSON to {path}: {e}");
                return 1;
            }
        }
    }
    0
}

/// Serving study: throughput-latency trade-off of SD policies across arrival
/// rates on the `tlt-serve` online subsystem (Qwen-7B replicas on H100, bursty
/// load, join-shortest-queue routing). With `--prefix-share > 0` the
/// deployment switches to paged block-granular KV accounting, that fraction of
/// requests carries a 512-token shared system prompt, and the table (and JSON
/// export) reports the prefix-hit rate and pool utilisation per run, plus a
/// paged-vs-token goodput comparison at the tight KV budget.
///
/// A per-replica stats table (completions, preemptions, failovers, crashes) is
/// always part of the report and JSON export. With `--trace-out` the whole
/// sweep runs under a flight recorder and the retained events are written as
/// Chrome `trace_event` JSON (byte-identical across same-seed runs);
/// `--metrics` adds an aggregate metrics summary table.
fn serving(
    scale: Scale,
    report: &mut Report,
    prefix_share: f64,
    disagg: bool,
    trace_out: Option<&str>,
    metrics: bool,
) {
    if trace_out.is_some() {
        tlt_obs::install(tlt_obs::FlightRecorder::new(TRACE_EVENTS_PER_TRACK));
    }
    let (replicas, rates): (usize, &[f64]) = if scale == Scale::Full {
        (2, &[2.0, 6.0, 10.0, 16.0, 24.0])
    } else {
        (2, &[4.0, 10.0])
    };
    let prefix_len = 512usize;
    let title = if prefix_share > 0.0 {
        format!(
            "Serving — SD policy sweep over arrival rate (Qwen-7B x2 H100 replicas, bursty load, \
             paged KV, prefix share {prefix_share:.2} x {prefix_len} tokens)"
        )
    } else {
        "Serving — SD policy sweep over arrival rate (Qwen-7B x2 H100 replicas, bursty load)"
            .to_string()
    };
    let mut t = Table::new(
        &title,
        &[
            "rate (req/s)",
            "policy",
            "tokens/s",
            "TTFT p50 (s)",
            "TTFT p99 (s)",
            "TPOT p99 (ms)",
            "E2E p99 (s)",
            "goodput (req/s)",
            "SLO %",
            "SD steps %",
            "mean util",
            "prefix hit %",
            "pool util",
        ],
    );
    let mut per_replica = Table::new(
        "Serving — per-replica stats (registry-backed)",
        &[
            "rate (req/s)",
            "policy",
            "replica",
            "completed",
            "dropped",
            "preemptions",
            "failovers",
            "crashes",
            "peak batch",
            "busy (s)",
            "util",
        ],
    );
    let mut totals = ServingTotals::default();
    // One independent, seeded simulation per arrival rate: the sweep fans out
    // across `TLT_NUM_THREADS` workers and merges back in input order, so the
    // tables (and any JSON export) are bit-identical at every thread count.
    // With `--trace-out` the sweep runs sequentially instead — the flight
    // recorder ring is installed on this thread only, and events emitted from
    // worker threads would bypass it.
    let run_rate = |rate: f64| {
        let mut config = ServingExperimentConfig::qwen7b_bursty(replicas, rate);
        if prefix_share > 0.0 {
            config = config.with_prefix_share(prefix_share, prefix_len);
        }
        run_serving_comparison(&config)
    };
    let sweep: Vec<(f64, _)> = if trace_out.is_some() {
        rates.iter().map(|&rate| (rate, run_rate(rate))).collect()
    } else {
        parallel_map(rates.to_vec(), |_, rate| (rate, run_rate(rate)))
    };
    for (rate, runs) in sweep {
        for (policy, r) in runs {
            for s in &r.replicas {
                per_replica.add_row(vec![
                    format!("{rate:.0}"),
                    policy.name().to_string(),
                    format!("{}", s.replica),
                    format!("{}", s.completed),
                    format!("{}", s.dropped),
                    format!("{}", s.preemptions),
                    format!("{}", s.failovers),
                    format!("{}", s.crashes),
                    format!("{}", s.peak_running),
                    format!("{:.2}", s.busy_s),
                    format!("{:.2}", s.utilization),
                ]);
                totals.absorb(s);
            }
            totals.runs += 1;
            t.add_row(vec![
                format!("{rate:.0}"),
                policy.name().to_string(),
                format!("{:.0}", r.throughput_tokens_per_s),
                format!("{:.3}", r.ttft.p50_s),
                format!("{:.3}", r.ttft.p99_s),
                format!("{:.2}", r.tpot.p99_s * 1e3),
                format!("{:.2}", r.e2e.p99_s),
                format!("{:.2}", r.goodput_rps),
                format!("{:.1}", r.slo_attainment * 100.0),
                format!("{:.1}", r.mean_sd_fraction() * 100.0),
                format!("{:.2}", r.mean_utilization()),
                format!("{:.1}", r.mean_prefix_hit_rate() * 100.0),
                format!("{:.3}", r.mean_pool_utilization()),
            ]);
        }
    }
    report.add(t);
    report.add(per_replica);
    if disagg {
        // Disaggregated prefill/decode cluster vs an equal-size monolithic
        // fleet at ~10x the SD-sweep rates: 3 prefill + 5 decode replicas
        // against 8 monolithic ones, prefill-heavy prompts, 60% sharing a
        // 768-token system prompt, and a fast-streaming TPOT SLO. Goodput is
        // normalised per *provisioned* replica (the autoscaler only retires,
        // so the cluster also wins by paying for less idle capacity).
        let (p, d) = (3usize, 5usize);
        let disagg_rates: &[f64] = if scale == Scale::Full {
            &[20.0, 60.0, 100.0, 160.0, 240.0]
        } else {
            &[20.0, 60.0]
        };
        let run_pair = |rate: f64| run_disagg_comparison(p, d, rate, 0.6, 768);
        let pairs: Vec<(f64, _)> = if trace_out.is_some() {
            disagg_rates
                .iter()
                .map(|&rate| (rate, run_pair(rate)))
                .collect()
        } else {
            parallel_map(disagg_rates.to_vec(), |_, rate| (rate, run_pair(rate)))
        };
        let mut dt = Table::new(
            "Serving — disaggregated prefill/decode (3P+5D, KV migration, prefix-affinity \
             routing, autoscaler) vs 8 monolithic replicas",
            &[
                "rate (req/s)",
                "disagg goodput/replica",
                "mono goodput/replica",
                "ratio",
                "migrations",
                "aborted",
                "mean transfer (ms)",
                "up/down/retire",
                "avg active",
                "disagg TPOT p99 (ms)",
                "mono TPOT p99 (ms)",
            ],
        );
        let mut log_ratio_sum = 0.0f64;
        for (rate, (cluster, mono)) in &pairs {
            let mono_per = mono.goodput_rps / (p + d) as f64;
            let ratio = cluster.goodput_per_replica / mono_per.max(1e-9);
            log_ratio_sum += ratio.max(1e-9).ln();
            dt.add_row(vec![
                format!("{rate:.0}"),
                format!("{:.3}", cluster.goodput_per_replica),
                format!("{:.3}", mono_per),
                format!("{ratio:.2}"),
                format!("{}", cluster.migrations),
                format!("{}", cluster.aborted_transfers),
                format!("{:.2}", cluster.mean_transfer_s * 1e3),
                format!(
                    "{}/{}/{}",
                    cluster.scale_ups, cluster.scale_downs, cluster.retires
                ),
                format!("{:.2}", cluster.avg_active_replicas),
                format!("{:.2}", cluster.serve.tpot.p99_s * 1e3),
                format!("{:.2}", mono.tpot.p99_s * 1e3),
            ]);
        }
        report.add(dt);
        println!(
            "disagg vs monolithic goodput-per-replica: geomean {:.2}x over {} rates",
            (log_ratio_sum / pairs.len() as f64).exp(),
            pairs.len()
        );
    }
    if prefix_share > 0.0 {
        let (paged, tokens) = run_prefix_sharing_comparison(1, 16.0, prefix_share, 768);
        let mut cmp = Table::new(
            "Serving — paged block admission vs flat token budget (tight KV, shared prompts)",
            &[
                "admission",
                "goodput (req/s)",
                "TTFT p99 (s)",
                "prefix hit %",
                "pool util",
            ],
        );
        for (name, r) in [("token budget", &tokens), ("paged blocks", &paged)] {
            cmp.add_row(vec![
                name.to_string(),
                format!("{:.2}", r.goodput_rps),
                format!("{:.3}", r.ttft.p99_s),
                format!("{:.1}", r.mean_prefix_hit_rate() * 100.0),
                format!("{:.3}", r.mean_pool_utilization()),
            ]);
        }
        report.add(cmp);
        println!(
            "paged vs token goodput: {:.2} vs {:.2} req/s",
            paged.goodput_rps, tokens.goodput_rps
        );
    }
    let recorder = trace_out.map(|path| {
        let recorder = tlt_obs::uninstall().expect("recorder installed for --trace-out");
        write_trace(path, &tlt_obs::chrome_trace(&recorder.events()));
        recorder
    });
    if metrics {
        let mut m = Table::new(
            "Serving — metrics summary (--metrics)",
            &["metric", "value"],
        );
        m.add_row(vec!["runs".to_string(), format!("{}", totals.runs)]);
        m.add_row(vec![
            "completed".to_string(),
            format!("{}", totals.completed),
        ]);
        m.add_row(vec!["dropped".to_string(), format!("{}", totals.dropped)]);
        m.add_row(vec![
            "preemptions".to_string(),
            format!("{}", totals.preemptions),
        ]);
        m.add_row(vec![
            "failovers".to_string(),
            format!("{}", totals.failovers),
        ]);
        m.add_row(vec!["crashes".to_string(), format!("{}", totals.crashes)]);
        m.add_row(vec!["busy_s".to_string(), format!("{:.2}", totals.busy_s)]);
        if let Some(recorder) = &recorder {
            m.add_row(vec![
                "trace events recorded".to_string(),
                format!("{}", recorder.recorded()),
            ]);
            m.add_row(vec![
                "trace events retained".to_string(),
                format!("{}", recorder.len()),
            ]);
        }
        report.add(m);
    }
    println!(
        "SLO: TTFT <= 1.0 s and TPOT <= 20 ms; goodput counts SLO-meeting completions per second."
    );
}

/// Sweep-wide accumulators behind the serving `--metrics` summary table.
#[derive(Default)]
struct ServingTotals {
    runs: usize,
    completed: usize,
    dropped: usize,
    preemptions: u64,
    failovers: u64,
    crashes: u64,
    busy_s: f64,
}

impl ServingTotals {
    fn absorb(&mut self, s: &tlt_serve::ReplicaStats) {
        self.completed += s.completed;
        self.dropped += s.dropped;
        self.preemptions += s.preemptions;
        self.failovers += s.failovers;
        self.crashes += s.crashes;
        self.busy_s += s.busy_s;
    }
}

/// Ring capacity per track for `--trace-out` exports: enough to retain a full
/// quick sweep while bounding a full-scale run's memory.
const TRACE_EVENTS_PER_TRACK: usize = 65_536;

/// Writes a Chrome trace document to `path`, exiting non-zero on I/O failure.
fn write_trace(path: &str, doc: &tlt_obs::json::JsonValue) {
    match std::fs::write(path, format!("{doc}\n")) {
        Ok(()) => println!(
            "wrote Chrome trace_event JSON to {path} (open in chrome://tracing or Perfetto)"
        ),
        Err(e) => {
            eprintln!("error: failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}

//! Exact event counts of the two serving drivers: how many events a run
//! processes is a pure function of the trace and the deployment, so it is
//! pinned — not timed. The stale count beside it reads 0: neither driver keeps
//! a scheduler whose entries could go stale.
//!
//! The hooks are process-wide atomics, so this is the only test in its binary:
//! nothing else can bump the counters while they are being read.

use tlt_obs::hooks;
use tlt_serve::{drive, ClusterSim, Driver, ServeSim};
use tlt_trace::Trace;

#[path = "common/churn.rs"]
mod churn;

/// Replays `trace` on `sim`; returns the report beside `(decode_steps,
/// entry_visits)` summed over every replica, retired ones included.
fn replay_counting<D: Driver>(trace: &Trace, mut sim: D) -> (D::Report, (u64, u64)) {
    drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    let steps = sim.members().fold((0, 0), |(steps, visits), (_, _, r)| {
        (
            steps + r.metrics().decode_steps(),
            visits + r.entry_visits(),
        )
    });
    (sim.into_report(), steps)
}

/// Beside the event counts, `(decode_steps, entry_visits)`: a replica counts
/// every running entry its step path visits (an eviction or finish walk
/// counts the batch, a prefill its admitted tail, a decode step its
/// unstamped tail), which is what a decode step cost before a run of vanilla
/// steps over an unchanged batch was carried as one scalar. The same counter
/// on 6cdd719 read 35,944 visits on the chat replay (every one of its steps is
/// speculative, so no run ever begins and nothing changes), 282,690 on the
/// churn run (adaptive SD too: the 200 extra are begin attempts that stop at
/// the first fractional entry) and 2,217,208 on the churn run with SD off,
/// where 106,704 steps cost 53,226 visits while a join, a first token or a
/// finish still ended the run. Once a run survived all three and the
/// conservative reservation was a kept sum, they cost 9,183; the chat replay
/// went from 35,944 to 35,830 (admission no longer re-sums the batch's
/// reservation) and the adaptive churn run stayed at 282,890. Since a
/// speculative step commits whole tokens, a run carries it too: the chat
/// replay costs 3,001 visits and the adaptive churn run 9,477 (the event and
/// step counts moved with the commits, 15,612 -> 15,638 and 12,956 ->
/// 12,998 events). Once the batch was a run always (no walked step, and a
/// prefill visiting only its admitted tail), they cost 1,049 (chat), 8,623
/// (adaptive churn) and 8,317 (SD-off churn), every other count unchanged.
#[test]
fn corpus_replay_and_churn_run_process_a_pinned_number_of_events() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/chat.tltr");
    let chat = Trace::read_file(path).expect("committed chat trace");
    hooks::enable();

    hooks::reset();
    let (report, steps) = replay_counting(&chat, ServeSim::new(&tlt::replay_deployment(4)));
    let counters = hooks::snapshot();
    assert_eq!(report.completed.len(), 468);
    assert_eq!(
        (counters.sim_events, counters.sim_stale_events),
        (15_638, 0),
        "ServeSim, chat corpus on 4 replicas"
    );
    assert_eq!(
        steps,
        (15_171, 1_049),
        "ServeSim, chat corpus on 4 replicas"
    );

    hooks::reset();
    let (report, steps) = replay_counting(&churn::trace(), ClusterSim::new(churn::config()));
    let counters = hooks::snapshot();
    assert_eq!(report.serve.completed.len(), 768);
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    assert_eq!(
        (counters.sim_events, counters.sim_stale_events),
        (12_998, 0),
        "ClusterSim, churn run"
    );
    assert_eq!(steps, (11_723, 8_623), "ClusterSim, churn run");

    let mut sd_off = churn::config();
    sd_off.base.sd_mode = tlt_rollout::SdMode::Disabled;
    let (report, steps) = replay_counting(&churn::trace(), ClusterSim::new(sd_off));
    assert_eq!(report.serve.completed.len(), 768);
    assert_eq!(steps, (106_704, 8_317), "ClusterSim, churn run with SD off");
    hooks::disable();
}

/// The work of the timing-level rollout engine, pinned where a wall-clock
/// floor would stand: `(decode_steps, speculative_steps)` per system, one RL
/// step per row as the benchmark's `paper_sim` runs it, on the
/// `qwen2_5_7b / H100 / tp 2` row of the Figure 11 grid and summed over its
/// eight rows (what a rep's `tlt.run_experiment_s.*` is divided by to give ns
/// per simulated step), and the runs it advances them in, one loop iteration
/// each, which its host time follows. Touches no hook, so it may run beside
/// the test above.
#[test]
fn figure11_grid_simulates_a_pinned_number_of_decode_steps() {
    use tlt::{run_experiment, ExperimentConfig, SystemKind};
    use tlt_gpusim::{ClusterConfig, GpuType};
    use tlt_model::ModelSpec;

    let (mut rows, mut runs) = (Vec::new(), [0u64; 4]);
    for gpu_type in [GpuType::H100, GpuType::A100] {
        for model in ModelSpec::paper_targets() {
            // The tensor-parallel rule of `experiments -- fig11`.
            let tp = match model.params {
                p if p > 5e10 => 8,
                p if p > 2e10 => 4,
                _ => 2,
            };
            let cluster = ClusterConfig {
                gpu_type,
                tp,
                ..ClusterConfig::dgx_h100_testbed()
            };
            let mut config = ExperimentConfig::paper_default(model, cluster);
            config.num_steps = 1;
            // Open-R1, VeRL, TLT-Base, TLT.
            let results = SystemKind::all().map(|system| run_experiment(system, &config));
            for (total, result) in runs.iter_mut().zip(&results) {
                *total += result.runs;
            }
            rows.push(results.map(|result| (result.decode_steps, result.speculative_steps)));
        }
    }
    assert_eq!(
        rows[0],
        [
            (784_027, 0),
            (440_403, 0),
            (136_215, 136_215),
            (47_741, 47_741)
        ],
        "qwen2_5_7b / H100 / tp 2"
    );
    let grid = rows.iter().fold([(0, 0); 4], |mut grid, row| {
        for (total, (steps, speculative)) in grid.iter_mut().zip(row) {
            *total = (total.0 + steps, total.1 + speculative);
        }
        grid
    });
    assert_eq!(
        grid,
        [
            (5_172_338, 0),
            (2_805_396, 0),
            (884_330, 861_014),
            (326_354, 303_038),
        ],
        "summed over the eight rows"
    );
    // 16,252 engine loop iterations a rep: a run ends only where a request
    // finishes, never at a timeline point, since `run_experiment` records none.
    assert_eq!(
        runs,
        [4_092, 4_076, 4_066, 4_018],
        "runs over the eight rows"
    );
}

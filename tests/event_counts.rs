//! Exact event counts of the two serving drivers: how many events a run
//! processes, and how many of them were stale heap entries, is a pure function
//! of the trace and the deployment, so it is pinned — not timed.
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
/// every full pass its step path makes over the running batch (`+=
/// running.len()`), which is what a decode step cost before a run of vanilla
/// steps over an unchanged batch was carried as one scalar. The same counter
/// on 6cdd719 read 35,944 visits on the chat replay (every one of its steps is
/// speculative, so no run ever begins and nothing changes), 282,690 on the
/// churn run (adaptive SD too: the 200 extra are begin attempts that stop at
/// the first fractional entry) and 2,217,208 on the churn run with SD off,
/// where 106,704 steps now cost 53,226 visits.
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
        (15_612, 0),
        "ServeSim, chat corpus on 4 replicas"
    );
    assert_eq!(
        steps,
        (15_145, 35_944),
        "ServeSim, chat corpus on 4 replicas"
    );

    hooks::reset();
    let (report, steps) = replay_counting(&churn::trace(), ClusterSim::new(churn::config()));
    let counters = hooks::snapshot();
    assert_eq!(report.serve.completed.len(), 768);
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    assert_eq!(
        (counters.sim_events, counters.sim_stale_events),
        (12_956, 0),
        "ClusterSim, churn run"
    );
    assert_eq!(steps, (11_681, 282_890), "ClusterSim, churn run");

    let mut sd_off = churn::config();
    sd_off.base.sd_mode = tlt_rollout::SdMode::Disabled;
    let (report, steps) = replay_counting(&churn::trace(), ClusterSim::new(sd_off));
    assert_eq!(report.serve.completed.len(), 768);
    assert_eq!(
        steps,
        (106_704, 53_226),
        "ClusterSim, churn run with SD off"
    );
    hooks::disable();
}

/// Host time of the timing-level rollout engine is proportional to the decode
/// steps it simulates, so the counts are pinned where a wall-clock floor would
/// stand: `(decode_steps, speculative_steps)` per system, one RL step per row as
/// the benchmark's `paper_sim` runs it, on the `qwen2_5_7b / H100 / tp 2` row of
/// the Figure 11 grid and summed over its eight rows (what a rep's
/// `tlt.run_experiment_s.*` is divided by to give ns per simulated step).
/// Touches no hook, so it may run beside the test above.
#[test]
fn figure11_grid_simulates_a_pinned_number_of_decode_steps() {
    use tlt::{run_experiment, ExperimentConfig, SystemKind};
    use tlt_gpusim::{ClusterConfig, GpuType};
    use tlt_model::ModelSpec;

    let mut rows = Vec::new();
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
            rows.push(SystemKind::all().map(|system| {
                let result = run_experiment(system, &config);
                (result.decode_steps, result.speculative_steps)
            }));
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
}

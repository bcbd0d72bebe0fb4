//! Exact event counts of the two serving drivers: how many events a run
//! processes, and how many of them were stale heap entries, is a pure function
//! of the trace and the deployment, so it is pinned — not timed.
//!
//! The hooks are process-wide atomics, so this is the only test in its binary:
//! nothing else can bump the counters while they are being read.

use tlt_obs::hooks;
use tlt_trace::{replay_disagg, Trace};

#[path = "common/churn.rs"]
mod churn;

#[test]
fn corpus_replay_and_churn_run_process_a_pinned_number_of_events() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/chat.tltr");
    let chat = Trace::read_file(path).expect("committed chat trace");
    hooks::enable();

    hooks::reset();
    let report = tlt::run_replay(&chat, 4);
    let counters = hooks::snapshot();
    assert_eq!(report.completed.len(), 468);
    assert_eq!(
        (counters.sim_events, counters.sim_stale_events),
        (15_612, 0),
        "ServeSim, chat corpus on 4 replicas"
    );

    hooks::reset();
    let report = replay_disagg(&churn::trace(), churn::config());
    let counters = hooks::snapshot();
    assert_eq!(report.serve.completed.len(), 768);
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    assert_eq!(
        (counters.sim_events, counters.sim_stale_events),
        (12_956, 0),
        "ClusterSim, churn run"
    );
    hooks::disable();
}

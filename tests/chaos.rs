//! System-level chaos guarantees, asserted by tests (not logs): the pinned
//! scenario matrix passes every invariant, and killing any single replica
//! mid-run completes every in-flight request on the survivors with zero lost
//! or duplicated requests.

use std::collections::BTreeSet;
use tlt::chaos::{run_chaos_matrix, run_scenario, Scenario};

#[test]
fn pinned_matrix_passes_every_invariant() {
    let outcomes = run_chaos_matrix();
    assert!(outcomes.len() >= 10, "matrix shrank to {}", outcomes.len());
    for outcome in &outcomes {
        assert!(
            outcome.invariants.passed(),
            "{}: {:?}",
            outcome.name,
            outcome.invariants.violations
        );
        assert_eq!(
            outcome.completed + outcome.dropped,
            outcome.arrivals,
            "{}: request accounting broken",
            outcome.name
        );
    }
}

#[test]
fn killing_any_single_replica_mid_run_loses_and_duplicates_nothing() {
    // The acceptance-shape claim: whichever replica dies, the survivors absorb
    // its queued and running requests and every arrival completes exactly once.
    for victim in 0..3 {
        let scenario = Scenario::builder(&format!("kill-replica-{victim}"))
            .seed(400 + victim as u64)
            .replicas(3)
            .arrivals(18.0, 6.0)
            .crash(2.5, victim)
            .build();
        let arrivals = scenario.arrival_stream();
        let outcome = run_scenario(&scenario);
        assert!(
            outcome.invariants.passed(),
            "victim {victim}: {:?}",
            outcome.invariants.violations
        );
        assert!(
            outcome.requeued > 0,
            "victim {victim}: the crash must drain live requests onto survivors"
        );
        assert_eq!(outcome.dropped, 0, "victim {victim}");
        // Exactly-once completion, cross-checked from the raw records.
        let ids: BTreeSet<u64> = outcome.report.completed.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), outcome.report.completed.len(), "duplicated ids");
        assert_eq!(ids.len(), arrivals.len(), "victim {victim}: lost requests");
        // The victim served nothing after the crash: every post-crash
        // completion landed on a survivor.
        for r in &outcome.report.completed {
            if r.replica == victim {
                assert!(
                    r.finish_s <= 2.5 + 1e-9,
                    "victim {victim} completed request {} after its crash",
                    r.id
                );
            }
        }
    }
}

#[test]
fn invariant_violation_dumps_a_postmortem_naming_the_killed_replica() {
    // A clean run must not dump; a violated run must produce a readable
    // postmortem that names the violated invariant and replays the last-N
    // events per track — including the victim's crash and the failover
    // re-queues, with request ids attached.
    let clean = Scenario::builder("postmortem-clean")
        .seed(500)
        .replicas(3)
        .arrivals(18.0, 6.0)
        .crash(2.5, 1)
        .build();
    let outcome = run_scenario(&clean);
    assert!(outcome.invariants.passed());
    assert!(
        outcome.postmortem.is_none(),
        "clean runs must not dump a postmortem"
    );
    assert!(!outcome.trace.is_empty(), "clean runs still record a trace");

    // Crash late in the horizon so the failover re-queues land inside the
    // survivors' last-N ring windows (the recorder keeps the most recent
    // events per track; a crash hours before the dump would age out).
    let broken = Scenario::builder("postmortem-crash")
        .seed(501)
        .replicas(3)
        .arrivals(18.0, 6.0)
        .crash(5.0, 1)
        .forced_violation()
        .build();
    let outcome = run_scenario(&broken);
    assert!(!outcome.invariants.passed());
    let dump = outcome.postmortem.as_deref().expect("violation must dump");
    assert!(dump.contains("==== flight recorder postmortem ===="));
    assert!(dump.contains("scenario 'postmortem-crash' (seed 501)"));
    assert!(dump.contains("violated postmortem-probe"));
    // The killed replica's track is present and its last event is the crash.
    assert!(
        dump.contains("-- replica 1 "),
        "victim track missing:\n{dump}"
    );
    assert!(dump.contains("crash"), "crash event missing:\n{dump}");
    assert!(
        dump.contains("failover"),
        "failover events missing:\n{dump}"
    );
    assert!(dump.contains("req="), "request ids missing:\n{dump}");
}

#[test]
fn failover_preserves_latency_accounting_across_the_crash() {
    // Requests that streamed tokens before the crash keep their original
    // first-token timestamps: TTFT is measured from arrival, not from the
    // failover re-queue.
    let scenario = Scenario::builder("latency-across-crash")
        .seed(77)
        .replicas(2)
        .arrivals(14.0, 6.0)
        .crash(3.0, 0)
        .build();
    let outcome = run_scenario(&scenario);
    assert!(
        outcome.invariants.passed(),
        "{:?}",
        outcome.invariants.violations
    );
    let recomputed: Vec<_> = outcome
        .report
        .completed
        .iter()
        .filter(|r| r.preemptions > 0)
        .collect();
    assert!(!recomputed.is_empty(), "the crash must force recomputes");
    for r in &outcome.report.completed {
        assert!(r.first_token_s >= r.arrival_s, "request {}", r.id);
        assert!(r.finish_s >= r.first_token_s, "request {}", r.id);
    }
}

#[test]
fn disagg_matrix_passes_every_invariant() {
    let outcomes = tlt::run_disagg_chaos_matrix();
    assert!(
        outcomes.len() >= 5,
        "disagg matrix shrank to {}",
        outcomes.len()
    );
    for outcome in &outcomes {
        assert!(
            outcome.invariants.passed(),
            "{}: {:?}",
            outcome.name,
            outcome.invariants.violations
        );
        assert_eq!(
            outcome.completed + outcome.dropped,
            outcome.arrivals,
            "{}: request accounting broken",
            outcome.name
        );
    }
    // The matrix must actually exercise the migration fault surface: at least
    // one scenario aborts an in-flight KV transfer, and the autoscaled storm
    // both grows the pools and drains them back down.
    assert!(
        outcomes.iter().any(|o| o.report.aborted_transfers > 0),
        "no scenario aborted a mid-flight transfer"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.report.scale_ups > 0 && o.report.retires > 0),
        "no scenario scaled up and retired"
    );
}

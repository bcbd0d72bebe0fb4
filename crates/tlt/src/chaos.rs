//! Chaos pipeline: summarises [`run_pinned_matrix`]'s outcomes for
//! `experiments -- chaos [--json <path>]` and the `chaos-suite` CI job, one
//! table per deployment (split by [`ChaosReport::cluster`]).

pub use tlt_chaos::{
    pinned_matrix, run_pinned_matrix, run_scenario, ChaosOutcome, ChaosReport, Deployment,
    FaultKind, InvariantReport, Scenario, ScenarioBuilder, INVARIANTS,
};

/// One summary row per monolithic scenario (cluster outcomes are skipped):
/// name, schedule, request accounting, fault accounting, and the invariant
/// verdict — the `verdict` cell is literally `PASS` or `FAIL(n)` so downstream
/// tooling can gate on it.
pub fn chaos_summary_rows(outcomes: &[ChaosOutcome]) -> Vec<Vec<String>> {
    outcomes
        .iter()
        .filter(|o| o.report.cluster().is_none())
        .map(|o| {
            vec![
                o.name.clone(),
                o.schedule.clone(),
                format!("{}", o.arrivals),
                format!("{}", o.completed),
                format!("{}", o.dropped),
                format!("{}", o.requeued),
                format!("{}", o.crashes),
                format!("{}", o.restarts),
                format!(
                    "{}/{}/{}",
                    o.drafter.swaps, o.drafter.rejected_corrupt, o.drafter.rejected_stale
                ),
                format!("{:.3}", o.report.serve().mean_pool_utilization()),
                format!("{:.3}", o.report.serve().mean_prefix_hit_rate()),
                o.invariants.verdict(),
            ]
        })
        .collect()
}

/// Column headers matching [`chaos_summary_rows`].
pub const CHAOS_SUMMARY_HEADER: [&str; 12] = [
    "scenario",
    "schedule",
    "arrivals",
    "completed",
    "dropped",
    "requeued",
    "crashes",
    "restarts",
    "ckpt s/c/s",
    "pool util",
    "prefix hit",
    "verdict",
];

/// One summary row per disaggregated-cluster scenario (monolithic outcomes
/// are skipped): name, schedule, pool shape, request and fault accounting,
/// migration/transfer counters, the autoscaler decision log, and the invariant
/// verdict.
pub fn disagg_summary_rows(outcomes: &[ChaosOutcome]) -> Vec<Vec<String>> {
    outcomes
        .iter()
        .filter_map(|o| Some((o, o.report.cluster()?)))
        .map(|(o, cluster)| {
            vec![
                o.name.clone(),
                o.schedule.clone(),
                o.deployment.clone(),
                format!("{}", o.arrivals),
                format!("{}", o.completed),
                format!("{}", o.dropped),
                format!("{}", o.requeued),
                format!("{}/{}", o.crashes, o.restarts),
                format!("{}", cluster.migrations),
                format!("{}", cluster.aborted_transfers),
                format!(
                    "{}/{}/{}",
                    cluster.scale_ups, cluster.scale_downs, cluster.retires
                ),
                o.invariants.verdict(),
            ]
        })
        .collect()
}

/// Column headers matching [`disagg_summary_rows`].
pub const DISAGG_SUMMARY_HEADER: [&str; 12] = [
    "scenario",
    "schedule",
    "pools",
    "arrivals",
    "completed",
    "dropped",
    "requeued",
    "crash/restart",
    "migrations",
    "aborted",
    "up/down/retire",
    "verdict",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_rows_carry_a_verdict_per_scenario() {
        let outcome = run_scenario(
            &Scenario::builder("summary-probe")
                .seed(5)
                .arrivals(4.0, 4.0)
                .build(),
        );
        let outcomes = [outcome];
        let rows = chaos_summary_rows(&outcomes);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), CHAOS_SUMMARY_HEADER.len());
        assert_eq!(rows[0][0], "summary-probe");
        assert_eq!(rows[0].last().unwrap(), "PASS");
        assert!(disagg_summary_rows(&outcomes).is_empty());
    }

    #[test]
    fn disagg_summary_rows_carry_a_verdict_per_scenario() {
        let outcome = run_scenario(
            &Scenario::builder("disagg-summary-probe")
                .seed(6)
                .pools(1, 1)
                .arrivals(4.0, 4.0)
                .build(),
        );
        let outcomes = [outcome];
        let rows = disagg_summary_rows(&outcomes);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), DISAGG_SUMMARY_HEADER.len());
        assert_eq!(rows[0][0], "disagg-summary-probe");
        assert_eq!(rows[0][2], "1P+1D");
        assert_eq!(rows[0].last().unwrap(), "PASS");
        assert!(chaos_summary_rows(&outcomes).is_empty());
    }
}

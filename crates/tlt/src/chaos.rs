//! Chaos pipeline: runs the pinned fault-injection scenario matrix from
//! [`tlt_chaos`] and summarises per-scenario outcomes for the experiments
//! harness (`experiments -- chaos [--json <path>]`) and the `chaos-suite` CI
//! job.

pub use tlt_chaos::{
    disagg_matrix, pinned_matrix, run_disagg_scenario, run_scenario, ChaosOutcome, DisaggScenario,
    DisaggScenarioBuilder, FaultKind, InvariantReport, Scenario, ScenarioBuilder, INVARIANTS,
};
use tlt_serve::ClusterReport;

/// Runs every scenario in the pinned matrix and returns the outcomes in matrix
/// order.
pub fn run_chaos_matrix() -> Vec<ChaosOutcome> {
    tlt_chaos::run_pinned_matrix()
}

/// Runs every scenario in the pinned disaggregated-cluster matrix and returns
/// the outcomes in matrix order.
pub fn run_disagg_chaos_matrix() -> Vec<ChaosOutcome<ClusterReport>> {
    tlt_chaos::run_disagg_matrix()
}

/// One summary row per scenario: name, schedule, request accounting, fault
/// accounting, and the invariant verdict — the `verdict` cell is literally
/// `PASS` or `FAIL(n)` so downstream tooling can gate on it.
pub fn chaos_summary_rows(outcomes: &[ChaosOutcome]) -> Vec<Vec<String>> {
    outcomes
        .iter()
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
                format!("{:.3}", o.report.mean_pool_utilization()),
                format!("{:.3}", o.report.mean_prefix_hit_rate()),
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

/// One summary row per disaggregated-cluster scenario: name, schedule, pool
/// shape, request and fault accounting, migration/transfer counters, the
/// autoscaler decision log, and the invariant verdict.
pub fn disagg_summary_rows(outcomes: &[ChaosOutcome<ClusterReport>]) -> Vec<Vec<String>> {
    outcomes
        .iter()
        .map(|o| {
            vec![
                o.name.clone(),
                o.schedule.clone(),
                o.deployment.clone(),
                format!("{}", o.arrivals),
                format!("{}", o.completed),
                format!("{}", o.dropped),
                format!("{}", o.requeued),
                format!("{}/{}", o.crashes, o.restarts),
                format!("{}", o.report.migrations),
                format!("{}", o.report.aborted_transfers),
                format!(
                    "{}/{}/{}",
                    o.report.scale_ups, o.report.scale_downs, o.report.retires
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
        let rows = chaos_summary_rows(&[outcome]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), CHAOS_SUMMARY_HEADER.len());
        assert_eq!(rows[0][0], "summary-probe");
        assert_eq!(rows[0].last().unwrap(), "PASS");
    }

    #[test]
    fn disagg_summary_rows_carry_a_verdict_per_scenario() {
        let outcome = run_disagg_scenario(
            &DisaggScenario::builder("disagg-summary-probe")
                .seed(6)
                .pools(1, 1)
                .arrivals(4.0, 4.0)
                .build(),
        );
        let rows = disagg_summary_rows(&[outcome]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), DISAGG_SUMMARY_HEADER.len());
        assert_eq!(rows[0][0], "disagg-summary-probe");
        assert_eq!(rows[0][2], "1P+1D");
        assert_eq!(rows[0].last().unwrap(), "PASS");
    }
}

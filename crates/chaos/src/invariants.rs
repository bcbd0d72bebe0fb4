//! The invariant-checking harness: what must stay true under every fault
//! schedule, and the machinery for recording violations.

use serde::Serialize;
use std::collections::BTreeSet;
use tlt_coord::{Coordinator, WorkerState};

/// Names of the system invariants the harness checks. Every scenario in the
/// pinned matrix must satisfy all of them.
pub const INVARIANTS: &[&str] = &[
    // Every arrival completes or is dropped exactly once — nothing lost to a
    // crash, nothing duplicated by a failover.
    "request-conservation",
    // No replica ever starts a step with more KV blocks charged than its
    // pool budget (post-preemption accounting; every scenario of the matrix
    // runs paged accounting).
    "kv-budget",
    // Block conservation on every replica's KV pool: shared-prefix refcounts
    // sum to the running requests referencing them, charges never exceed
    // capacity, and after a full drain every block is free (no leaks — the
    // prefix cache holds only unreferenced, reclaimable groups).
    "kv-pool-conservation",
    // The coordinator's training-session bookkeeping stays structurally
    // consistent after every event, and a final preemption always succeeds
    // (no deadlock, no double-promotion, no resurrection of failed workers).
    "coordinator-consistency",
    // Greedy speculative output equals vanilla output, including across a
    // mid-generation drafter swap, with the post-fault serving drafter.
    "losslessness",
    // Corrupt and stale drafter checkpoints are always rejected, and the
    // last-good rollback restores the serving drafter bit-exactly.
    "checkpoint-guard",
    // The whole scenario — faults included — is a pure function of its seed:
    // two runs produce bit-identical reports.
    "seed-determinism",
    // The deployment drains: no request is left queued, running or orphaned
    // when the schedule ends.
    "drained",
    // Not a system property: a synthetic violation injected by
    // `Scenario::forced_violation()` to self-test the alerting path — the
    // flight-recorder postmortem must fire whenever any invariant breaks.
    "postmortem-probe",
];

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InvariantViolation {
    /// Which invariant broke (one of [`INVARIANTS`]).
    pub invariant: &'static str,
    /// Human-readable description of the observed breakage.
    pub detail: String,
}

/// The verdict of the invariant harness for one scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct InvariantReport {
    /// All recorded violations (empty means the scenario passed).
    pub violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// Creates an empty (passing) report.
    pub fn new() -> Self {
        InvariantReport::default()
    }

    /// Records a violation.
    pub fn violate(&mut self, invariant: &'static str, detail: String) {
        debug_assert!(INVARIANTS.contains(&invariant), "unknown invariant");
        self.violations
            .push(InvariantViolation { invariant, detail });
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// `PASS` or `FAIL(n)`.
    pub fn verdict(&self) -> String {
        if self.passed() {
            "PASS".to_string()
        } else {
            format!("FAIL({})", self.violations.len())
        }
    }
}

/// Checks request conservation: every id in `arrival_ids` appears exactly once
/// across `completed_ids` and `dropped_ids`, with no strays.
pub fn check_conservation(
    report: &mut InvariantReport,
    arrival_ids: &[u64],
    completed_ids: &[u64],
    dropped_ids: &[u64],
) {
    let arrivals: BTreeSet<u64> = arrival_ids.iter().copied().collect();
    if arrivals.len() != arrival_ids.len() {
        report.violate("request-conservation", "duplicate arrival ids".to_string());
    }
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for (&id, what) in completed_ids
        .iter()
        .map(|id| (id, "completed"))
        .chain(dropped_ids.iter().map(|id| (id, "dropped")))
    {
        if !arrivals.contains(&id) {
            report.violate(
                "request-conservation",
                format!("{what} id {id} never arrived"),
            );
        }
        if !seen.insert(id) {
            report.violate(
                "request-conservation",
                format!("request {id} finished more than once ({what})"),
            );
        }
    }
    for &id in arrivals.iter() {
        if !seen.contains(&id) {
            report.violate(
                "request-conservation",
                format!("request {id} was lost (neither completed nor dropped)"),
            );
        }
    }
}

/// Checks the coordinator's session structure: unique members, leader is a
/// member, members are TRAINING, every TRAINING worker is a member.
pub fn check_coordinator(report: &mut InvariantReport, coord: &Coordinator, when: &str) {
    if let Some(session) = coord.training_session() {
        let set: BTreeSet<usize> = session.members.iter().copied().collect();
        if set.len() != session.members.len() {
            report.violate(
                "coordinator-consistency",
                format!("{when}: duplicate session member in {:?}", session.members),
            );
        }
        if !session.members.contains(&session.leader) {
            report.violate(
                "coordinator-consistency",
                format!(
                    "{when}: leader {} outside members {:?}",
                    session.leader, session.members
                ),
            );
        }
        for &m in &session.members {
            if coord.worker_state(m) != WorkerState::Training {
                report.violate(
                    "coordinator-consistency",
                    format!("{when}: member {m} is {}", coord.worker_state(m)),
                );
            }
        }
    }
    for w in 0..coord.num_workers() {
        if coord.worker_state(w) == WorkerState::Training
            && !coord
                .training_session()
                .is_some_and(|s| s.members.contains(&w))
        {
            report.violate(
                "coordinator-consistency",
                format!("{when}: TRAINING worker {w} outside the session"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_catches_loss_duplication_and_strays() {
        let mut ok = InvariantReport::new();
        check_conservation(&mut ok, &[0, 1, 2], &[1, 0], &[2]);
        assert!(ok.passed());
        assert_eq!(ok.verdict(), "PASS");

        let mut lost = InvariantReport::new();
        check_conservation(&mut lost, &[0, 1, 2], &[0], &[2]);
        assert!(!lost.passed());
        assert!(lost.violations[0].detail.contains("lost"));

        let mut duplicated = InvariantReport::new();
        check_conservation(&mut duplicated, &[0, 1], &[0, 1, 1], &[]);
        assert!(duplicated
            .violations
            .iter()
            .any(|v| v.detail.contains("more than once")));

        let mut stray = InvariantReport::new();
        check_conservation(&mut stray, &[0], &[0, 9], &[]);
        assert!(stray
            .violations
            .iter()
            .any(|v| v.detail.contains("never arrived")));
        assert_eq!(stray.verdict(), "FAIL(1)");
    }

    #[test]
    fn coordinator_checker_accepts_consistent_sessions() {
        use tlt_coord::{CoordinatorConfig, WorkerEvent};
        let mut coord = Coordinator::new(3, CoordinatorConfig::default());
        coord.handle_event(
            WorkerEvent::StateChanged {
                worker: 1,
                state: WorkerState::Idle,
                at: 0.0,
            },
            0.0,
        );
        let mut report = InvariantReport::new();
        check_coordinator(&mut report, &coord, "test");
        assert!(report.passed());
    }
}

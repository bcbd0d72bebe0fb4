//! Chaos recovery demo: scripts a failure storm against a 3-replica deployment
//! — a straggler, a mid-run crash with failover, an arrival storm, a corrupt
//! drafter checkpoint, and a restart — then verifies the system invariants all
//! held: every request completed exactly once, KV budgets were respected, the
//! coordinator stayed consistent, and speculative decoding remained lossless
//! through the drafter swap.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```

use tlt::chaos::{run_scenario, Scenario};

fn main() {
    let scenario = Scenario::builder("demo-failure-storm")
        .seed(2026)
        .replicas(3)
        .arrivals(10.0, 12.0)
        .adaptive_sd()
        .slow(1.0, 2, 3.0)
        .preempt_training(2.0)
        .crash(3.0, 1)
        .storm(4.0, 30.0, 2.0)
        .corrupt_checkpoint(5.0)
        .restart(6.5, 1)
        .slow(8.0, 2, 1.0)
        .build();

    println!("scenario : {}", scenario.name);
    println!("schedule : {}", scenario.schedule_label());
    let outcome = run_scenario(&scenario);

    println!("\n--- outcome ---");
    println!("arrivals   : {}", outcome.arrivals);
    println!("completed  : {}", outcome.completed);
    println!("dropped    : {}", outcome.dropped);
    println!(
        "requeued   : {} (failed over to survivors)",
        outcome.requeued
    );
    println!(
        "faults     : {} crash(es), {} restart(s)",
        outcome.crashes, outcome.restarts
    );
    println!(
        "drafter    : {} swap(s), {} corrupt rejected, {} stale rejected, {} rollback(s)",
        outcome.drafter.swaps,
        outcome.drafter.rejected_corrupt,
        outcome.drafter.rejected_stale,
        outcome.drafter.rollbacks
    );
    println!(
        "coordinator: {} promoted, {} failed, {} re-elections",
        outcome.coordinator.workers_promoted,
        outcome.coordinator.workers_failed,
        outcome.coordinator.leader_reelections
    );
    println!(
        "latency    : TTFT p99 {:.3} s | E2E p99 {:.3} s across the storm",
        outcome.report.serve().ttft.p99_s,
        outcome.report.serve().e2e.p99_s
    );

    println!("\n--- invariants ---");
    for v in &outcome.invariants.violations {
        println!("VIOLATED [{}] {}", v.invariant, v.detail);
    }
    println!("verdict    : {}", outcome.invariants.verdict());
    assert!(
        outcome.invariants.passed(),
        "the demo scenario must pass every invariant"
    );
    assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
}

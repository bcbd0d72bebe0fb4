//! Property-based invariant suite for the disaggregated-cluster chaos path.
//!
//! Random pool shapes, link shapes, workloads, and fault schedules — crash +
//! guaranteed restart, stragglers, autoscaling — must all hold every cluster
//! invariant: request conservation across migration and failover, KV pool
//! conservation on both sides of the transfer link, per-replica block budgets,
//! a full drain, and bit-identical reruns per seed.

use proptest::prelude::*;
use tlt_chaos::{run_scenario, Scenario};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_fault_schedules_hold_every_cluster_invariant(
        seed in 0u64..1_000_000,
        prefill in 1usize..=2,
        decode in 1usize..=2,
        rps in 2.0f64..10.0,
        horizon_s in 3.0f64..6.0,
        bandwidth_gbps in 0.5f64..50.0,
        latency_s in 0.0f64..0.2,
        // Feature mask: bit 0 autoscale, bit 1 shared prefix, bit 2 a crash
        // with a guaranteed restart, bit 3 a straggler.
        knobs in 0u32..16,
        share in 0.1f64..0.9,
        prefix_len in 32usize..128,
        crash_at in 0.5f64..2.5,
        crash_target in 0usize..8,
        restart_delay in 0.5f64..1.5,
        slow_at in 0.5f64..2.5,
        slow_target in 0usize..8,
        slow_factor in 1.5f64..4.0,
    ) {
        let total = prefill + decode;
        let mut b = Scenario::builder("prop-disagg")
            .seed(seed)
            .pools(prefill, decode)
            .arrivals(rps, horizon_s)
            .link(bandwidth_gbps, latency_s);
        if knobs & 1 != 0 {
            b = b.autoscale();
        }
        if knobs & 2 != 0 {
            b = b.prefix_share(share, prefix_len);
        }
        if knobs & 4 != 0 {
            // Restart is mandatory: a pool left permanently empty can never
            // drain, which is a liveness property of the schedule, not of the
            // cluster.
            let target = crash_target % total;
            b = b.crash(crash_at, target).restart(crash_at + restart_delay, target);
        }
        if knobs & 8 != 0 {
            b = b.slow(slow_at, slow_target % total, slow_factor);
        }
        let scenario = b.build();

        let outcome = run_scenario(&scenario);
        prop_assert!(
            outcome.invariants.passed(),
            "seed {} knobs {:#06b} pools {}+{} violated: {:?}",
            seed,
            knobs,
            prefill,
            decode,
            outcome.invariants.violations
        );
        prop_assert_eq!(
            outcome.completed + outcome.dropped,
            outcome.arrivals,
            "conservation arithmetic must close"
        );
        // Every completion on the cluster path rides at least one migration
        // (failed-over requests re-prefill and migrate again after a crash).
        let cluster = outcome.report.cluster().expect("a cluster scenario");
        prop_assert!(cluster.migrations as usize >= outcome.completed);
    }
}

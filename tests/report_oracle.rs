//! Reference model for the serving report.
//!
//! `reference_build` is `ServeReport::build` as it stood while each replica
//! kept its own completion log: the records arrive gathered replica by
//! replica, a stable sort orders them by `(finish_s, id)`, and the three
//! latency series are materialised side by side, each stably sorted before it
//! is summarised. The product now sorts the driver's event-order log in place
//! with an unstable sort and summarises the series one after another through
//! one buffer. The reference lives here, test-only and not selectable at run
//! time; the suites below hold the two identical in every bit of the report on
//! runs whose completions tie on `finish_s` across replicas and leave a step
//! out of id order.

use tlt::obs::{EventKind, ObsEvent};
use tlt::replay_deployment;
use tlt_serve::metrics::percentile_sorted;
use tlt_serve::{
    ClusterSim, CompletedRequest, LatencySummary, ReplicaStats, ServeReport, ServeSim, SloSpec,
};
use tlt_workload::{generate_arrivals, ArrivalConfig, RequestArrival};

#[path = "common/churn.rs"]
mod churn;
#[path = "common/drive.rs"]
mod drive;
use drive::{drive, Fault, CORES};

fn reference_summary(values: &mut [f64]) -> LatencySummary {
    if values.is_empty() {
        return LatencySummary::default();
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    LatencySummary {
        p50_s: percentile_sorted(values, 50.0),
        p95_s: percentile_sorted(values, 95.0),
        p99_s: percentile_sorted(values, 99.0),
        mean_s: values.iter().sum::<f64>() / values.len() as f64,
        max_s: *values.last().expect("non-empty"),
    }
}

fn reference_build(
    mut completed: Vec<CompletedRequest>,
    dropped: usize,
    replicas: Vec<ReplicaStats>,
    slo: SloSpec,
) -> ServeReport {
    completed.sort_by(|a, b| {
        a.finish_s
            .partial_cmp(&b.finish_s)
            .expect("finite finish times")
            .then(a.id.cmp(&b.id))
    });
    let makespan_s = completed.last().map(|r| r.finish_s).unwrap_or(0.0);
    let total_output_tokens: u64 = completed.iter().map(|r| r.output_len as u64).sum();
    let mut ttfts: Vec<f64> = completed.iter().map(CompletedRequest::ttft_s).collect();
    let mut tpots: Vec<f64> = completed.iter().map(CompletedRequest::tpot_s).collect();
    let mut e2es: Vec<f64> = completed.iter().map(CompletedRequest::e2e_s).collect();
    let met = completed.iter().filter(|r| slo.met(r)).count();
    let denom = makespan_s.max(1e-9);
    ServeReport {
        dropped,
        makespan_s,
        total_output_tokens,
        throughput_tokens_per_s: total_output_tokens as f64 / denom,
        ttft: reference_summary(&mut ttfts),
        tpot: reference_summary(&mut tpots),
        e2e: reference_summary(&mut e2es),
        slo_attainment: if completed.is_empty() {
            0.0
        } else {
            met as f64 / completed.len() as f64
        },
        goodput_rps: met as f64 / denom,
        replicas,
        completed,
    }
}

/// Holds `product` against the reference fed the same records the way the
/// per-replica logs were gathered (replica by replica, each replica's in its
/// own finish order), and once more in reverse: `(finish_s, id)` is a total
/// order, so the gather order must not matter. `Debug` prints every float
/// exactly, so string equality is bit equality over the whole report.
fn assert_matches_reference(product: &ServeReport, slo: SloSpec, offered: usize, label: &str) {
    let mut ids: Vec<u64> = product.completed.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        product.completed.len(),
        "{label}: a completion was logged twice"
    );
    assert_eq!(
        product.completed.len() + product.dropped,
        offered,
        "{label}: a completion never reached the log"
    );

    let mut gathered = product.completed.clone();
    gathered.sort_by_key(|r| r.replica);
    let mut reversed = gathered.clone();
    reversed.reverse();
    for (order, records) in [("gathered", gathered), ("reversed", reversed)] {
        let reference = reference_build(records, product.dropped, product.replicas.clone(), slo);
        assert_eq!(
            product.completed, reference.completed,
            "{label}, {order}: completion order"
        );
        for (name, ours, theirs) in [
            ("ttft", product.ttft, reference.ttft),
            ("tpot", product.tpot, reference.tpot),
            ("e2e", product.e2e, reference.e2e),
        ] {
            assert_eq!(
                format!("{ours:?}"),
                format!("{theirs:?}"),
                "{label}, {order}: {name} summary"
            );
        }
        assert_eq!(
            format!("{product:?}"),
            format!("{reference:?}"),
            "{label}, {order}: whole report"
        );
    }
}

/// Adjacent records of the finish-ordered log that share a finish time but
/// not a replica.
fn cross_replica_ties(report: &ServeReport) -> usize {
    report
        .completed
        .windows(2)
        .filter(|w| w[0].finish_s == w[1].finish_s && w[0].replica != w[1].replica)
        .count()
}

/// Consecutive completion events of one step (same track, same instant) whose
/// request ids descend: the step finished its batch out of id order.
fn out_of_id_order_steps(events: &[ObsEvent]) -> usize {
    let completions: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Completion)
        .collect();
    completions
        .windows(2)
        .filter(|w| w[0].track == w[1].track && w[0].ts_s == w[1].ts_s && w[0].req > w[1].req)
        .count()
}

/// The 82-member churn cluster, with and without a crash and restart of each
/// initial replica mid-burst, under both event cores.
#[test]
fn churn_cluster_reports_match_the_reference() {
    let trace = churn::trace();
    let slo = churn::config().base.slo;
    let crash_restart = [
        (1.0, Fault::Crash(1)),
        (3.0, Fault::Restart(1)),
        (16.0, Fault::Crash(0)),
        (17.5, Fault::Restart(0)),
    ];
    for faults in [&[][..], &crash_restart[..]] {
        for core in CORES {
            let label = format!("churn, {} faults, {core:?}", faults.len());
            let (report, _) = drive(
                core,
                ClusterSim::new(churn::config()),
                trace.arrivals(),
                faults,
            );
            assert!(report.retires >= churn::MIN_RETIRES, "{label}");
            assert_eq!(report.serve.replicas.len(), 82, "{label}");
            assert_matches_reference(&report.serve, slo, trace.arrivals().len(), &label);
        }
    }
}

/// A monolithic fleet made to produce what an in-place unstable sort could get
/// wrong. Four replicas fed identical work at t = 0 run in lockstep, so their
/// completions tie on `finish_s` across replicas; a tight KV budget under
/// optimistic admission preempts and re-queues, a crash fails a batch over
/// onto its neighbours and a straggler slows one of them, so batches hold
/// requests out of id order and finish them that way.
#[test]
fn serving_reports_with_ties_preemption_and_faults_match_the_reference() {
    let mut config = replay_deployment(4).with_preemption();
    // About 16.5k KV tokens per replica: enough to run, too few not to preempt.
    config.kv_memory_fraction = 0.188;
    let burst = (0..16u64).map(|id| RequestArrival {
        id,
        time_ns: 0,
        prompt_len: 512,
        output_len: 48,
        prefix_id: 0,
        prefix_len: 0,
    });
    let stream = generate_arrivals(&ArrivalConfig::constant(60.0, 6.0, 23).with_prefix(0.5, 128));
    let arrivals: Vec<RequestArrival> = burst
        .chain(stream.iter().map(|a| RequestArrival {
            id: a.id + 16,
            time_ns: a.time_ns + 1_000_000_000,
            ..*a
        }))
        .collect();
    let faults = [
        (1.5, Fault::Slow(2, 2.5)),
        (3.0, Fault::Crash(1)),
        (4.0, Fault::Restart(1)),
    ];
    for core in CORES {
        let label = format!("serving, {core:?}");
        let (report, events) = drive(core, ServeSim::new(&config), &arrivals, &faults);
        assert_matches_reference(&report, config.slo, arrivals.len(), &label);
        let preemptions: u64 = report.replicas.iter().map(|r| r.preemptions).sum();
        assert!(preemptions > 0, "{label}: the KV budget must preempt");
        assert_eq!(report.replicas[1].crashes, 1, "{label}");
        assert!(
            cross_replica_ties(&report) > 0,
            "{label}: no finish time is shared across replicas"
        );
        assert!(
            out_of_id_order_steps(&events) > 0,
            "{label}: every step finished its batch in id order"
        );
    }
}

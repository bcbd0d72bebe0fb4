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
//! out of id order. The same runs recount every replica's tallies from the
//! flight-recorder events on its track.

use tlt::obs::{EventKind, ObsEvent, Track};
use tlt::replay_deployment;
use tlt_serve::metrics::percentile_sorted;
use tlt_serve::{
    ClusterSim, CompletedRequest, Driver, LatencySummary, ReplicaStats, ServeReport, ServeSim,
    SloSpec,
};
use tlt_workload::{generate_arrivals, ArrivalConfig, RequestArrival};

#[path = "common/churn.rs"]
mod churn;
#[path = "common/drive.rs"]
mod drive;
use drive::{drive_in_place, Fault};

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

/// Every member of `sim` in report order: its flight-recorder track and the
/// decode and speculative steps it scheduled.
fn member_steps<D: Driver>(sim: &D) -> Vec<(Track, u64, u64)> {
    sim.members()
        .map(|(pool, i, replica)| {
            let i = i as u32;
            let track = match pool {
                "prefill" => Track::PrefillReplica(i),
                "decode" => Track::DecodeReplica(i),
                _ => Track::Replica(i),
            };
            let metrics = replica.metrics();
            (track, metrics.decode_steps(), metrics.sd_steps())
        })
        .collect()
}

/// Recounts each member's tallies from the events on its track: completions,
/// preemptions, crashes and failovers equal their event counts, and busy time
/// is the sum of the step spans' durations in event order, to the bit. A
/// step is counted when it is scheduled and recorded when it completes, so a
/// crash can leave one decode step (vanilla or speculative) counted but never
/// recorded. Returns the unrecorded `(decode, speculative)` steps over all
/// members.
fn assert_tallies_match_the_events(
    replicas: &[ReplicaStats],
    members: &[(Track, u64, u64)],
    events: &[ObsEvent],
    label: &str,
) -> (u64, u64) {
    assert_eq!(replicas.len(), members.len(), "{label}: members");
    let mut unrecorded = (0, 0);
    for (stats, &(track, decode_steps, sd_steps)) in replicas.iter().zip(members) {
        let label = format!("{label}, {track:?}");
        let on_track = || events.iter().filter(move |e| e.track == track);
        let count = |kind| on_track().filter(|e| e.kind == kind).count() as u64;
        for (name, tally, kind) in [
            ("completed", stats.completed as u64, EventKind::Completion),
            ("preemptions", stats.preemptions, EventKind::Preemption),
            ("crashes", stats.crashes, EventKind::Crash),
            ("failovers", stats.failovers, EventKind::Failover),
        ] {
            assert_eq!(tally, count(kind), "{label}: {name}");
        }
        let steps = [EventKind::Prefill, EventKind::Decode, EventKind::SdRound];
        let busy_s = on_track()
            .filter(|e| steps.contains(&e.kind))
            .fold(0.0, |sum, e| sum + e.dur_s);
        assert_eq!(stats.busy_s.to_bits(), busy_s.to_bits(), "{label}: busy_s");
        let sd_spans = count(EventKind::SdRound);
        let decode_spans = count(EventKind::Decode) + sd_spans;
        let lost = decode_steps.checked_sub(decode_spans);
        let lost_sd = sd_steps.checked_sub(sd_spans);
        assert!(
            matches!((lost, lost_sd), (Some(l), Some(s)) if s <= l && l <= stats.crashes),
            "{label}: {decode_steps} decode / {sd_steps} SD steps scheduled, \
             {decode_spans} / {sd_spans} recorded, {} crashes",
            stats.crashes
        );
        unrecorded.0 += decode_steps - decode_spans;
        unrecorded.1 += sd_steps - sd_spans;
    }
    unrecorded
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
/// initial replica mid-burst.
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
        let label = format!("churn, {} faults", faults.len());
        let mut sim = ClusterSim::new(churn::config());
        let events = drive_in_place(&mut sim, trace.arrivals(), faults);
        let members = member_steps(&sim);
        let report = sim.into_report();
        assert!(report.retires >= churn::MIN_RETIRES, "{label}");
        assert_eq!(report.serve.replicas.len(), 82, "{label}");
        assert_matches_reference(&report.serve, slo, trace.arrivals().len(), &label);
        let unrecorded =
            assert_tallies_match_the_events(&report.serve.replicas, &members, &events, &label);
        // Of the two crashes, one aborts a vanilla decode step in flight.
        let expected = if faults.is_empty() { (0, 0) } else { (1, 0) };
        assert_eq!(unrecorded, expected, "{label}: unrecorded steps");
    }
}

/// A monolithic fleet made to produce what an in-place unstable sort could get
/// wrong. Four replicas fed identical work at t = 0 run in lockstep, so their
/// completions tie on `finish_s` across replicas; that work arrives in
/// descending id order, so each replica's batch holds it out of id order and
/// finishes it in one step. A tight KV budget under optimistic admission
/// preempts and re-queues, a crash fails a batch over onto its neighbours and
/// a straggler slows one of them.
#[test]
fn serving_reports_with_ties_preemption_and_faults_match_the_reference() {
    let mut config = replay_deployment(4);
    config.preemption = true;
    // About 16.5k KV tokens per replica: enough to run, too few not to preempt.
    config.kv_memory_fraction = 0.188;
    let burst = (0..16u64).rev().map(|id| RequestArrival {
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
    let mut sim = ServeSim::new(&config);
    let events = drive_in_place(&mut sim, &arrivals, &faults);
    let members = member_steps(&sim);
    let report = sim.into_report();
    assert_matches_reference(&report, config.slo, arrivals.len(), "serving");
    let unrecorded =
        assert_tallies_match_the_events(&report.replicas, &members, &events, "serving");
    // Replica 1's crash aborts the speculative step it has in flight.
    assert_eq!(unrecorded, (1, 1), "serving: unrecorded steps");
    let preemptions: u64 = report.replicas.iter().map(|r| r.preemptions).sum();
    assert!(preemptions > 0, "the KV budget must preempt");
    assert_eq!(report.replicas[1].crashes, 1);
    assert!(
        cross_replica_ties(&report) > 0,
        "no finish time is shared across replicas"
    );
    assert!(
        out_of_id_order_steps(&events) > 0,
        "every step finished its batch in id order"
    );
}

//! Scenarios for the two event loops: plain serving, disaggregated clusters
//! with an autoscaler, fault injection, autoscaler churn, corpus replay and a
//! degenerate all-ties workload. `ClusterSim` picks each transfer landing,
//! prefill step and tick by a linear next-event scan (`ClusterSim::run_events`),
//! and debug builds check that no event is dispatched before the clock; both
//! simulators run each replica's due steps in one loop and debug builds check,
//! after every loop, that no replica was left with a step due and that each
//! replica's steps came in time order.
//! What these tests assert on top is that the run reached the state it is
//! meant to exercise, that each track's event stream is pinned, and that
//! ServeSim equals the scan-order oracle on the all-ties workload. Budget
//! exhaustion must be a typed outcome, reported once.

use std::collections::BTreeMap;
use tlt::obs::{install, uninstall, EventKind, FlightRecorder, ObsEvent, Track};
use tlt::replay_deployment;
use tlt_serve::{ClusterSim, DisaggConfig, DriveOutcome, Driver, ServeReport, ServeSim};
use tlt_trace::CorpusPreset;
use tlt_workload::{generate_arrivals, ArrivalConfig, RequestArrival};

#[path = "common/drive.rs"]
mod drive;
use drive::{drive, per_track_streams, Fault};

#[path = "common/scan_order.rs"]
mod scan_order;

fn arrivals_for(seed: u64) -> Vec<RequestArrival> {
    generate_arrivals(&ArrivalConfig::constant(10.0, 8.0, seed).with_prefix(0.5, 128))
}

/// Every arrival either completed or was dropped at admission.
fn assert_conserved(report: &ServeReport, offered: usize, label: &str) {
    assert_eq!(
        report.completed.len() + report.dropped,
        offered,
        "{label}: a request went missing"
    );
}

#[test]
fn serving_is_bit_identical_across_cores() {
    for seed in [1u64, 17, 4242] {
        let arrivals = arrivals_for(seed);
        let (report, events) = drive(ServeSim::new(&replay_deployment(3)), &arrivals, &[]);
        assert_conserved(&report, arrivals.len(), &format!("seed {seed}"));
        assert!(!events.is_empty(), "instrumentation must capture events");
    }
}

#[test]
fn serving_with_crash_and_restart_is_bit_identical_across_cores() {
    let arrivals = arrivals_for(99);
    let faults = [
        (2.0, Fault::Crash(1)),
        (3.5, Fault::Restart(1)),
        (5.0, Fault::Crash(0)),
    ];
    let (report, events) = drive(ServeSim::new(&replay_deployment(3)), &arrivals, &faults);
    assert_conserved(&report, arrivals.len(), "chaos");
    assert!(
        events.iter().any(|e| e.kind == EventKind::Crash),
        "the fault schedule must actually crash replicas"
    );
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The crash/restart drive's flight-recorder stream, digested track by track
/// (not by `seq`): `(events, tracks, FNV of the per-track streams in track
/// order)`, pinned before `ServeSim` stopped interleaving replica steps.
#[test]
fn serving_with_crash_and_restart_pins_every_track_stream() {
    let arrivals = arrivals_for(99);
    let faults = [
        (2.0, Fault::Crash(1)),
        (3.5, Fault::Restart(1)),
        (5.0, Fault::Crash(0)),
    ];
    let (_, events) = drive(ServeSim::new(&replay_deployment(3)), &arrivals, &faults);
    let tracks = per_track_streams(&events);
    assert_eq!(
        (
            events.len(),
            tracks.len(),
            fnv1a(format!("{tracks:?}").as_bytes())
        ),
        (2_227, 4, 0x8f2e_a74a_5340_1abe)
    );
}

#[test]
fn disagg_with_autoscaler_and_faults_is_bit_identical_across_cores() {
    let arrivals = arrivals_for(7);
    let config = DisaggConfig::new(replay_deployment(1), 2, 3)
        .with_autoscale(tlt_serve::AutoscaleConfig::default());
    let faults = [(2.5, Fault::Crash(3)), (4.0, Fault::Restart(3))];
    let (report, events) = drive(ClusterSim::new(config), &arrivals, &faults);
    assert_conserved(&report.serve, arrivals.len(), "disagg");
    assert!(
        report.migrations > 0,
        "the decode pool must receive migrations"
    );
    assert!(
        events.iter().any(|e| e.track == Track::Autoscaler),
        "the autoscaler must tick during the run"
    );
}

#[path = "common/churn.rs"]
mod churn;

/// A crash/restart of each initial replica of the churn run mid-burst.
const CHURN_CRASH_RESTART: [(f64, Fault); 4] = [
    (1.0, Fault::Crash(1)),
    (3.0, Fault::Restart(1)),
    (16.0, Fault::Crash(0)),
    (17.5, Fault::Restart(0)),
];

/// Autoscaler churn leaves dozens of retired members in both pools; the scan
/// must still skip them and each track's stream must hold its pin, with and
/// without a crash/restart of each initial replica mid-burst.
#[test]
fn disagg_under_autoscaler_churn_is_bit_identical_across_cores() {
    let trace = churn::trace();
    for faults in [&[][..], &CHURN_CRASH_RESTART[..]] {
        let label = format!("{} faults", faults.len());
        let (report, _) = drive(ClusterSim::new(churn::config()), trace.arrivals(), faults);
        assert_conserved(&report.serve, trace.arrivals().len(), &label);
        assert!(
            report.retires >= churn::MIN_RETIRES,
            "{label}: only {} retirements",
            report.retires
        );
    }
}

/// The churn run without and with [`CHURN_CRASH_RESTART`], digested track by
/// track (not by `seq`) beside its `ClusterReport` with the two fields of the
/// capacity integral masked: `(events, tracks, FNV of the per-track streams,
/// FNV of the masked report)`, pinned before `ClusterSim` stopped
/// interleaving decode steps with its other sources.
#[test]
fn disagg_under_autoscaler_churn_pins_every_track_stream() {
    let trace = churn::trace();
    let mut pins = Vec::new();
    for faults in [&[][..], &CHURN_CRASH_RESTART[..]] {
        let (mut report, events) =
            drive(ClusterSim::new(churn::config()), trace.arrivals(), faults);
        report.avg_active_replicas = 0.0;
        report.goodput_per_replica = 0.0;
        let tracks = per_track_streams(&events);
        pins.push((
            events.len(),
            tracks.len(),
            fnv1a(format!("{tracks:?}").as_bytes()),
            fnv1a(format!("{report:?}").as_bytes()),
        ));
    }
    assert_eq!(
        pins,
        vec![
            (15_853, 40, 0xe1ae_1a6f_9707_5706, 0x9a6d_fe7e_7758_3791),
            (16_129, 43, 0x67a7_7d69_2932_25ed, 0x6088_2caa_ca9b_f2b5),
        ]
    );
}

/// The 60 req/s point of the disaggregation sweep
/// (`tlt::run_disagg_comparison`; its monolithic baseline records on tracks
/// of its own), where handoffs wait for decode capacity and decode replicas
/// drain: the states in which a decode step changes what the rest of the
/// cluster sees. Digested as the churn run is, pinned before `ClusterSim`
/// stopped interleaving decode steps with its other sources.
#[test]
fn disagg_comparison_pins_every_track_stream() {
    install(FlightRecorder::new(1 << 14));
    let (mut report, _) = tlt::run_disagg_comparison(3, 5, 60.0, 0.6, 768);
    let events = uninstall().expect("recorder installed").events();
    report.avg_active_replicas = 0.0;
    report.goodput_per_replica = 0.0;
    let tracks = per_track_streams(&events);
    assert_eq!(
        (
            events.len(),
            tracks.len(),
            fnv1a(format!("{tracks:?}").as_bytes()),
            fnv1a(format!("{report:?}").as_bytes()),
        ),
        (146_199, 19, 0x1ec4_24be_38f3_aa08, 0x45d6_f2b4_ab0f_3009)
    );
}

#[test]
fn corpus_replay_is_bit_identical_across_cores() {
    for preset in [CorpusPreset::Chat, CorpusPreset::BurstyMobile] {
        let trace = preset.build();
        let (report, _) = drive(ServeSim::new(&replay_deployment(2)), trace.arrivals(), &[]);
        assert_conserved(&report, trace.arrivals().len(), preset.name());
    }
}

/// The all-ties workload: identical replicas fed identical work at t = 0 step
/// in lockstep, so every step completion is an N-way tie. `ServeSim` runs the
/// replicas one after another between driver inputs, so each replica's own
/// steps must come in time order, and every track must equal the scan-order
/// oracle's, which breaks each tie by ascending replica index.
#[test]
fn simultaneous_completions_process_in_replica_order_under_both_cores() {
    let n = 6usize;
    let config = replay_deployment(n);
    let arrivals: Vec<RequestArrival> = (0..n as u64)
        .map(|id| RequestArrival {
            id,
            time_ns: 0,
            prompt_len: 256,
            output_len: 64,
            prefix_id: 0,
            prefix_len: 0,
        })
        .collect();
    let (_, events) = drive(ServeSim::new(&config), &arrivals, &[]);
    let tracks = per_track_streams(&events);

    let mut step_stamps: BTreeMap<u64, usize> = BTreeMap::new();
    for (track, events) in &tracks {
        let Track::Replica(i) = track else { continue };
        let steps: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decode | EventKind::SdRound))
            .map(|e| e.ts_s)
            .collect();
        assert!(
            steps.windows(2).all(|w| w[0] <= w[1]),
            "replica {i}: steps out of time order"
        );
        for ts in steps {
            *step_stamps.entry(ts.to_bits()).or_default() += 1;
        }
    }
    assert!(
        step_stamps.values().any(|&replicas| replicas > 1),
        "the all-ties workload must actually produce simultaneous steps"
    );

    install(FlightRecorder::new(1 << 16));
    scan_order::run(&config, &[], &arrivals);
    let oracle = uninstall().expect("recorder installed").events();
    scan_order::assert_same_tracks(&tracks, &per_track_streams(&oracle), "all ties");
}

/// Every `Crash` / `Restart` in `events`, as `(kind, timestamp bits)`.
fn fault_stamps(events: &[ObsEvent]) -> Vec<(EventKind, u64)> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash | EventKind::Restart))
        .map(|e| (e.kind, e.ts_s.to_bits()))
        .collect()
}

/// One protocol for both drivers: a fault is stamped with its scheduled time,
/// bit for bit, not with the time of the simulator's last internal event.
#[test]
fn faults_are_stamped_with_their_scheduled_time_on_both_drivers() {
    let faults = [
        (2.0, Fault::Crash(1)),
        (3.5, Fault::Restart(1)),
        (5.0, Fault::Crash(0)),
    ];
    let expected = vec![
        (EventKind::Crash, 2.0f64.to_bits()),
        (EventKind::Restart, 3.5f64.to_bits()),
        (EventKind::Crash, 5.0f64.to_bits()),
    ];
    let arrivals = arrivals_for(99);
    let serving = ServeSim::new(&replay_deployment(3));
    let (_, events) = drive(serving, &arrivals, &faults);
    assert_eq!(fault_stamps(&events), expected, "ServeSim");
    let cluster = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 2, 2));
    let (_, events) = drive(cluster, &arrivals, &faults);
    assert_eq!(fault_stamps(&events), expected, "ClusterSim");
}

/// Runs `sim` over `arrivals` with a budget of `budget` events; returns the
/// count the exhaustion report carries.
fn events_at_exhaustion<D: Driver>(mut sim: D, arrivals: &[RequestArrival], budget: u64) -> f64 {
    install(FlightRecorder::new(1 << 14));
    sim.state_mut().set_event_budget(budget);
    let outcome = tlt_serve::drive(&mut sim, arrivals.iter().copied(), |_, _| {});
    assert_eq!(outcome, DriveOutcome::BudgetExhausted);
    assert!(outcome.budget_exhausted());
    assert!(sim.state().event_budget_exhausted());
    // Refusing further progress is stable and does not re-report.
    assert_eq!(sim.run_until_drained(), DriveOutcome::BudgetExhausted);
    assert!(sim.has_work(), "the budget must stop the run early");
    let events = uninstall().expect("recorder installed").events();
    let reported: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::BudgetExhausted)
        .collect();
    assert_eq!(
        reported.len(),
        1,
        "budget exhaustion must be reported exactly once"
    );
    assert_eq!(reported[0].b, budget as f64, "the budget is the b arg");
    reported[0].a
}

/// One budget rule for both drivers: only processed internal events count
/// (offers do not), and the drive stops with exactly `budget` of them run.
#[test]
fn budget_exhaustion_is_typed_and_reported_once() {
    let arrivals = arrivals_for(3);
    let serving = ServeSim::new(&replay_deployment(2));
    assert_eq!(events_at_exhaustion(serving, &arrivals, 40), 40.0);
    let cluster = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 1, 2));
    assert_eq!(events_at_exhaustion(cluster, &arrivals, 40), 40.0);
}

/// A cluster cut mid-run by its budget: every event up to the cut passes the
/// debug loop checks, and the cut is typed and reported once.
#[test]
fn cluster_budget_exhaustion_is_typed_and_identical_across_cores() {
    let cluster = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 1, 2));
    assert_eq!(events_at_exhaustion(cluster, &arrivals_for(5), 60), 60.0);
}

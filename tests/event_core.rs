//! Bit-identity of the two event cores: the lazy-invalidation indexed heap
//! must reproduce the linear next-event scan **exactly** — same event order,
//! same reports, same observability streams — on plain serving, disaggregated
//! clusters with an autoscaler, fault injection, trace replay, and degenerate
//! all-ties workloads. Budget exhaustion must be a typed, reported outcome
//! that both cores classify identically.

use tlt::obs::{install, uninstall, EventKind, FlightRecorder, ObsEvent, Track};
use tlt::replay_deployment;
use tlt_serve::{ClusterSim, DisaggConfig, DriveOutcome, Driver, EventCore, ServeReport, ServeSim};
use tlt_trace::CorpusPreset;
use tlt_workload::{generate_arrivals, ArrivalConfig, RequestArrival};

#[path = "common/drive.rs"]
mod drive;
use drive::{drive, Fault, CORES};

fn arrivals_for(seed: u64) -> Vec<RequestArrival> {
    generate_arrivals(&ArrivalConfig::constant(10.0, 8.0, seed).with_prefix(0.5, 128))
}

fn assert_serving_identical(
    (heap_report, heap_events): &(ServeReport, Vec<ObsEvent>),
    (scan_report, scan_events): &(ServeReport, Vec<ObsEvent>),
    label: &str,
) {
    assert_eq!(
        heap_events, scan_events,
        "{label}: observability streams diverged between event cores"
    );
    assert_eq!(heap_report.completed, scan_report.completed, "{label}");
    assert_eq!(heap_report.goodput_rps, scan_report.goodput_rps, "{label}");
    assert_eq!(
        heap_report.slo_attainment, scan_report.slo_attainment,
        "{label}"
    );
    assert_eq!(
        heap_report.throughput_tokens_per_s, scan_report.throughput_tokens_per_s,
        "{label}"
    );
    assert_eq!(heap_report.replicas, scan_report.replicas, "{label}");
}

#[test]
fn serving_is_bit_identical_across_cores() {
    for seed in [1u64, 17, 4242] {
        let arrivals = arrivals_for(seed);
        let config = replay_deployment(3);
        let [heap, scan] = CORES.map(|core| drive(core, ServeSim::new(&config), &arrivals, &[]));
        assert_serving_identical(&heap, &scan, &format!("seed {seed}"));
        assert!(!heap.1.is_empty(), "instrumentation must capture events");
    }
}

#[test]
fn serving_with_crash_and_restart_is_bit_identical_across_cores() {
    let arrivals = arrivals_for(99);
    let config = replay_deployment(3);
    let faults = [
        (2.0, Fault::Crash(1)),
        (3.5, Fault::Restart(1)),
        (5.0, Fault::Crash(0)),
    ];
    let [heap, scan] = CORES.map(|core| drive(core, ServeSim::new(&config), &arrivals, &faults));
    assert_serving_identical(&heap, &scan, "chaos");
    assert!(
        heap.1.iter().any(|e| e.kind == EventKind::Crash),
        "the fault schedule must actually crash replicas"
    );
}

#[test]
fn disagg_with_autoscaler_and_faults_is_bit_identical_across_cores() {
    let arrivals = arrivals_for(7);
    let config = || {
        DisaggConfig::new(replay_deployment(1), 2, 3)
            .with_autoscale(tlt_serve::AutoscaleConfig::default())
    };
    let faults = [(2.5, Fault::Crash(3)), (4.0, Fault::Restart(3))];
    let [(heap_report, heap_events), (scan_report, scan_events)] =
        CORES.map(|core| drive(core, ClusterSim::new(config()), &arrivals, &faults));
    assert_eq!(
        heap_events, scan_events,
        "disagg observability streams diverged between event cores"
    );
    assert_eq!(heap_report.serve.completed, scan_report.serve.completed);
    assert_eq!(heap_report.serve.goodput_rps, scan_report.serve.goodput_rps);
    assert_eq!(heap_report.migrations, scan_report.migrations);
    assert_eq!(heap_report.scale_ups, scan_report.scale_ups);
    assert_eq!(heap_report.scale_downs, scan_report.scale_downs);
    assert_eq!(heap_report.retires, scan_report.retires);
    assert_eq!(heap_report.migrated_blocks, scan_report.migrated_blocks);
    assert!(
        heap_events.iter().any(|e| e.track == Track::Autoscaler),
        "the autoscaler must tick during the run"
    );
}

#[path = "common/churn.rs"]
mod churn;

/// Autoscaler churn leaves dozens of retired members in both pools; the heap
/// and the scan must still agree on every event and on the whole report, with
/// and without a crash/restart of each initial replica mid-burst.
#[test]
fn disagg_under_autoscaler_churn_is_bit_identical_across_cores() {
    let trace = churn::trace();
    let crash_restart = [
        (1.0, Fault::Crash(1)),
        (3.0, Fault::Restart(1)),
        (16.0, Fault::Crash(0)),
        (17.5, Fault::Restart(0)),
    ];
    for faults in [&[][..], &crash_restart[..]] {
        let label = format!("{} faults", faults.len());
        let [(heap_report, heap_events), (scan_report, scan_events)] = CORES.map(|core| {
            drive(
                core,
                ClusterSim::new(churn::config()),
                trace.arrivals(),
                faults,
            )
        });
        assert_eq!(heap_events, scan_events, "{label}");
        assert_eq!(
            format!("{heap_report:?}"),
            format!("{scan_report:?}"),
            "{label}"
        );
        assert!(
            heap_report.retires >= churn::MIN_RETIRES,
            "{label}: only {} retirements",
            heap_report.retires
        );
    }
}

#[test]
fn corpus_replay_is_bit_identical_across_cores() {
    for preset in [CorpusPreset::Chat, CorpusPreset::BurstyMobile] {
        let trace = preset.build();
        let arrivals = trace.arrivals().to_vec();
        let config = replay_deployment(2);
        let [heap, scan] = CORES.map(|core| drive(core, ServeSim::new(&config), &arrivals, &[]));
        assert_serving_identical(&heap, &scan, preset.name());
    }
}

/// The pinned tie-break: replicas completing steps at the *same* instant are
/// processed in ascending replica order, under both cores. Identical replicas
/// fed identical work at t=0 step in lockstep, so every step completion is an
/// N-way tie — any tie-break drift between the cores reorders the streams.
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
    let [heap, scan] = CORES.map(|core| drive(core, ServeSim::new(&config), &arrivals, &[]));
    assert_serving_identical(&heap, &scan, "all-ties");

    // Cross-check the order directly on the stream: within every run of
    // identical timestamps, per-replica step events appear in ascending
    // replica index (first occurrence per replica).
    let steps: Vec<(u64, u32)> = heap
        .1
        .iter()
        .filter_map(|e| match e.track {
            Track::Replica(i) if matches!(e.kind, EventKind::Decode | EventKind::SdRound) => {
                Some((e.ts_s.to_bits(), i))
            }
            _ => None,
        })
        .collect();
    assert!(!steps.is_empty());
    let mut ties_checked = 0usize;
    let mut i = 0;
    while i < steps.len() {
        let ts = steps[i].0;
        let mut seen = Vec::new();
        while i < steps.len() && steps[i].0 == ts {
            if !seen.contains(&steps[i].1) {
                seen.push(steps[i].1);
            }
            i += 1;
        }
        if seen.len() > 1 {
            ties_checked += 1;
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "tied completions processed out of order");
        }
    }
    assert!(
        ties_checked > 0,
        "the all-ties workload must actually produce simultaneous steps"
    );
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
    for core in CORES {
        let serving = ServeSim::new(&replay_deployment(3));
        let (_, events) = drive(core, serving, &arrivals, &faults);
        assert_eq!(fault_stamps(&events), expected, "ServeSim, {core:?}");
        let cluster = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 2, 2));
        let (_, events) = drive(core, cluster, &arrivals, &faults);
        assert_eq!(fault_stamps(&events), expected, "ClusterSim, {core:?}");
    }
}

/// Runs `sim` over `arrivals_for(3)` under `core` with a budget of `budget`
/// events; returns the count the exhaustion report carries.
fn events_at_exhaustion<D: Driver>(mut sim: D, core: EventCore, budget: u64) -> f64 {
    install(FlightRecorder::new(1 << 14));
    sim.set_event_core(core);
    sim.state_mut().set_event_budget(budget);
    let outcome = tlt_serve::drive(&mut sim, arrivals_for(3).into_iter(), |_, _| {});
    assert_eq!(outcome, DriveOutcome::BudgetExhausted, "{core:?}");
    assert!(outcome.budget_exhausted());
    assert!(sim.state().event_budget_exhausted(), "{core:?}");
    // Refusing further progress is stable and does not re-report.
    assert_eq!(sim.run_until_drained(), DriveOutcome::BudgetExhausted);
    assert!(
        sim.has_work(),
        "{core:?}: the budget must stop the run early"
    );
    let events = uninstall().expect("recorder installed").events();
    let reported: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::BudgetExhausted)
        .collect();
    assert_eq!(
        reported.len(),
        1,
        "{core:?}: budget exhaustion must be reported exactly once"
    );
    assert_eq!(
        reported[0].b, budget as f64,
        "{core:?}: the budget is the b arg"
    );
    reported[0].a
}

/// One budget rule for both drivers: only processed internal events count
/// (offers do not), and the drive stops with exactly `budget` of them run.
#[test]
fn budget_exhaustion_is_typed_and_reported_once() {
    for core in CORES {
        let serving = ServeSim::new(&replay_deployment(2));
        assert_eq!(events_at_exhaustion(serving, core, 40), 40.0, "{core:?}");
        let cluster = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 1, 2));
        assert_eq!(events_at_exhaustion(cluster, core, 40), 40.0, "{core:?}");
    }
}

#[test]
fn cluster_budget_exhaustion_is_typed_and_identical_across_cores() {
    let arrivals = arrivals_for(5);
    let mut streams = Vec::new();
    for core in CORES {
        install(FlightRecorder::new(1 << 14));
        let mut sim = ClusterSim::new(DisaggConfig::new(replay_deployment(1), 1, 2));
        sim.set_event_core(core);
        sim.state_mut().set_event_budget(60);
        assert_eq!(
            tlt_serve::drive(&mut sim, arrivals.iter().copied(), |_, _| {}),
            DriveOutcome::BudgetExhausted,
            "{core:?}"
        );
        streams.push(uninstall().expect("recorder installed").events());
    }
    assert_eq!(
        streams[0], streams[1],
        "both cores must classify and report exhaustion identically"
    );
}

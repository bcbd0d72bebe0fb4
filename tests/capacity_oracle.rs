//! `ClusterReport::avg_active_replicas` against a test-local integral rebuilt
//! from the autoscaler's flight-recorder track: the pools start with P + D
//! provisioned replicas, a `ScaleUp` of an index never seen in its pool is a
//! spawn (+1; one of a seen index cancels a drain), a `Retire` leaves (-1),
//! and the count is integrated as a step function up to `max(makespan,
//! clock)`. The cluster integrates where the count changes and nowhere else,
//! so the two agree to the bit.

use std::collections::BTreeSet;
use tlt::obs::{install, uninstall, EventKind, FlightRecorder, ObsEvent, Track};
use tlt::run_disagg_comparison;
use tlt_serve::{drive, ClusterSim, Driver};

#[path = "common/churn.rs"]
mod churn;

/// Per-track ring capacity; the autoscaler track must stay below it.
const CAPACITY: usize = 1 << 12;

/// The time-averaged provisioned replica count rebuilt from `events` for
/// pools of `prefill` + `decode` initial replicas over `[0, end_s]`.
fn rebuilt_avg_active_replicas(
    prefill: usize,
    decode: usize,
    events: &[ObsEvent],
    end_s: f64,
) -> f64 {
    let autoscaler: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| e.track == Track::Autoscaler)
        .collect();
    assert!(autoscaler.len() < CAPACITY, "the autoscaler track wrapped");
    // Indices seen per pool (event arg b: prefill 0, decode 1).
    let mut seen: [BTreeSet<u64>; 2] =
        [(0..prefill as u64).collect(), (0..decode as u64).collect()];
    let mut provisioned = (prefill + decode) as f64;
    let (mut replica_seconds, mut last_s) = (0.0f64, 0.0f64);
    let mut integrate_to = |t: f64, provisioned: f64| {
        let dt = t - last_s;
        if dt > 0.0 {
            replica_seconds += dt * provisioned;
            last_s = t;
        }
    };
    for e in autoscaler {
        let delta = match e.kind {
            EventKind::ScaleUp if seen[e.b as usize].insert(e.a as u64) => 1.0,
            EventKind::Retire => -1.0,
            _ => continue,
        };
        integrate_to(e.ts_s, provisioned);
        provisioned += delta;
    }
    integrate_to(end_s, provisioned);
    replica_seconds / last_s.max(1e-9)
}

/// Within 1e-12 relative of `expected`: the float sum over sub-intervals may
/// differ in its last bits, nothing more.
fn close(value: f64, expected: f64) -> bool {
    (value - expected).abs() <= 1e-12 * expected.abs()
}

#[test]
fn churn_run_capacity_equals_the_rebuilt_integral() {
    let trace = churn::trace();
    let config = churn::config();
    let (prefill, decode) = (config.prefill_replicas, config.decode_replicas);
    let mut sim = ClusterSim::new(config);
    install(FlightRecorder::new(CAPACITY));
    drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    let events = uninstall().expect("recorder installed").events();
    let clock_s = sim.state().now_s();
    let report = sim.into_report();
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    let end_s = report.serve.makespan_s.max(clock_s);
    let rebuilt = rebuilt_avg_active_replicas(prefill, decode, &events, end_s);
    assert_eq!(
        report.avg_active_replicas.to_bits(),
        rebuilt.to_bits(),
        "{} vs {rebuilt}",
        report.avg_active_replicas
    );
    // What the cluster reported while it integrated at every event and
    // driver input: the same step function summed over more sub-intervals.
    assert!(close(rebuilt, 5.228417339037521), "{rebuilt}");
}

/// The 60 req/s point of the disaggregation sweep. Nothing is dropped, so the
/// drain ends at the decode step that completes the last request and the
/// clock equals the makespan.
#[test]
fn disagg_comparison_capacity_equals_the_rebuilt_integral() {
    install(FlightRecorder::new(CAPACITY));
    let (disagg, _) = run_disagg_comparison(3, 5, 60.0, 0.6, 768);
    let events = uninstall().expect("recorder installed").events();
    assert_eq!(disagg.serve.dropped, 0);
    assert!(disagg.retires > 0, "the autoscaler must shed replicas");
    let rebuilt = rebuilt_avg_active_replicas(3, 5, &events, disagg.serve.makespan_s);
    assert_eq!(
        disagg.avg_active_replicas.to_bits(),
        rebuilt.to_bits(),
        "{} vs {rebuilt}",
        disagg.avg_active_replicas
    );
    assert!(close(rebuilt, 7.5465727966432), "{rebuilt}");
}

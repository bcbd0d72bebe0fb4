//! The fault-injecting drive harness shared by the `event_core` and
//! `report_oracle` suites: either simulator under a chosen event core, arrivals
//! merged with timed faults by the product's own loop
//! (`tlt_serve::drive_schedule`), the whole flight-recorder stream captured.
#![allow(dead_code)]

use tlt::obs::{install, uninstall, FlightRecorder, ObsEvent};
use tlt_serve::{drive_schedule, DriveOutcome, Driver, EventCore};
use tlt_workload::RequestArrival;

/// Both next-event implementations: every suite holds them identical.
pub const CORES: [EventCore; 2] = [EventCore::IndexedHeap, EventCore::LinearScan];

/// A timed fault action against a running simulation (on a cluster, indices
/// span prefill then decode replicas).
#[derive(Clone, Copy)]
pub enum Fault {
    Crash(usize),
    Restart(usize),
    /// Sets the replica's step-duration multiplier (a straggler).
    Slow(usize, f64),
}

/// Drives `sim` under `core` over `arrivals` with `faults` applied at their
/// scheduled times, capturing the full observability stream.
pub fn drive<D: Driver>(
    core: EventCore,
    mut sim: D,
    arrivals: &[RequestArrival],
    faults: &[(f64, Fault)],
) -> (D::Report, Vec<ObsEvent>) {
    install(FlightRecorder::new(1 << 16));
    sim.set_event_core(core);
    let apply = |sim: &mut D, t: f64, fault: &Fault| match *fault {
        Fault::Crash(idx) => sim.crash_replica(idx, t),
        Fault::Restart(idx) => sim.restart_replica(idx, t),
        Fault::Slow(idx, factor) => sim.set_slow_factor(idx, factor),
    };
    let outcome = drive_schedule(&mut sim, arrivals, faults, apply, |_, _| {});
    assert_eq!(outcome, DriveOutcome::Completed);
    let events = uninstall().expect("recorder installed").events();
    (sim.into_report(), events)
}

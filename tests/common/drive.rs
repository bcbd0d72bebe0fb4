//! The fault-injecting drive harness shared by the `event_core`,
//! `report_oracle` and `serve_order_oracle` suites: either simulator,
//! arrivals merged with timed faults by the product's own loop
//! (`tlt_serve::drive_schedule`), the whole flight-recorder stream captured.
//! Debug builds check every pop of a cluster run against the linear
//! next-event scan, and every `ServeSim` advance against its postcondition.
#![allow(dead_code)]

use std::collections::BTreeMap;
use tlt::obs::{install, uninstall, FlightRecorder, ObsEvent, Track};
use tlt_serve::{drive_schedule, DriveOutcome, Driver};
use tlt_workload::RequestArrival;

/// A timed fault action against a running simulation (on a cluster, indices
/// span prefill then decode replicas).
#[derive(Clone, Copy)]
pub enum Fault {
    Crash(usize),
    Restart(usize),
    /// Sets the replica's step-duration multiplier (a straggler).
    Slow(usize, f64),
}

/// Drives `sim` over `arrivals` with `faults` applied at their scheduled
/// times, capturing the full observability stream.
pub fn drive<D: Driver>(
    mut sim: D,
    arrivals: &[RequestArrival],
    faults: &[(f64, Fault)],
) -> (D::Report, Vec<ObsEvent>) {
    let events = drive_in_place(&mut sim, arrivals, faults);
    (sim.into_report(), events)
}

/// [`drive`] on a borrowed simulator, which keeps its members readable after
/// the run.
pub fn drive_in_place<D: Driver>(
    sim: &mut D,
    arrivals: &[RequestArrival],
    faults: &[(f64, Fault)],
) -> Vec<ObsEvent> {
    install(FlightRecorder::new(1 << 16));
    let apply = |sim: &mut D, t: f64, fault: &Fault| match *fault {
        Fault::Crash(idx) => sim.crash_replica(idx, t),
        Fault::Restart(idx) => sim.restart_replica(idx, t),
        Fault::Slow(idx, factor) => sim.set_slow_factor(idx, factor),
    };
    let outcome = drive_schedule(sim, arrivals, faults, apply, |_, _| {});
    assert_eq!(outcome, DriveOutcome::Completed);
    uninstall().expect("recorder installed").events()
}

/// Each track's own event stream, in record order, with the global `seq`
/// cleared: what a driver fixes about a run regardless of how it interleaves
/// work that touches different tracks.
pub fn per_track_streams(events: &[ObsEvent]) -> BTreeMap<Track, Vec<ObsEvent>> {
    let mut tracks: BTreeMap<Track, Vec<ObsEvent>> = BTreeMap::new();
    for e in events {
        tracks
            .entry(e.track)
            .or_default()
            .push(ObsEvent { seq: 0, ..*e });
    }
    tracks
}

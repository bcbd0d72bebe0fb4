//! Fault-injecting drive loops shared by the `event_core` and `report_oracle`
//! suites: a `ServeSim` or `ClusterSim` under a chosen event core, arrivals
//! interleaved with timed faults, the whole flight-recorder stream captured.
//! Each suite uses a subset.
#![allow(dead_code)]

use tlt::obs::{install, uninstall, FlightRecorder, ObsEvent};
use tlt_serve::{
    ClusterReport, ClusterSim, DisaggConfig, DriveOutcome, EventCore, ServeConfig, ServeReport,
    ServeRequest, ServeSim,
};
use tlt_workload::RequestArrival;

/// Both next-event implementations: every suite holds them identical.
pub const CORES: [EventCore; 2] = [EventCore::IndexedHeap, EventCore::LinearScan];

/// A timed fault action against a running simulation.
#[derive(Clone, Copy)]
pub enum Fault {
    Crash(usize),
    Restart(usize),
    /// Sets the replica's step-duration multiplier (a straggler).
    Slow(usize, f64),
}

/// Drives a monolithic [`ServeSim`] under `core` over `arrivals` with faults
/// injected at their scheduled times, capturing the full observability stream.
pub fn drive_serving(
    core: EventCore,
    config: &ServeConfig,
    arrivals: &[RequestArrival],
    faults: &[(f64, Fault)],
) -> (ServeReport, Vec<ObsEvent>) {
    install(FlightRecorder::new(1 << 16));
    let mut sim = ServeSim::new(config);
    sim.set_event_core(core);
    let mut faults = faults.iter().copied().peekable();
    for a in arrivals {
        while let Some(&(t, fault)) = faults.peek() {
            if t > a.time_s() {
                break;
            }
            sim.advance_before(t);
            apply_serving(&mut sim, fault);
            faults.next();
        }
        sim.advance_before(a.time_s());
        sim.offer(ServeRequest::from_arrival(a));
    }
    for (t, fault) in faults {
        sim.advance_before(t);
        apply_serving(&mut sim, fault);
    }
    assert_eq!(sim.run_until_drained(), DriveOutcome::Completed);
    let events = uninstall().expect("recorder installed").events();
    (sim.into_report(), events)
}

/// Disaggregated counterpart of [`drive_serving`] (global fault indices span
/// prefill then decode replicas).
pub fn drive_disagg(
    core: EventCore,
    config: DisaggConfig,
    arrivals: &[RequestArrival],
    faults: &[(f64, Fault)],
) -> (ClusterReport, Vec<ObsEvent>) {
    install(FlightRecorder::new(1 << 16));
    let mut sim = ClusterSim::new(config);
    sim.set_event_core(core);
    let mut faults = faults.iter().copied().peekable();
    for a in arrivals {
        while let Some(&(t, fault)) = faults.peek() {
            if t > a.time_s() {
                break;
            }
            sim.advance_before(t);
            apply_disagg(&mut sim, fault, t);
            faults.next();
        }
        sim.advance_before(a.time_s());
        sim.offer(ServeRequest::from_arrival(a));
    }
    for (t, fault) in faults {
        sim.advance_before(t);
        apply_disagg(&mut sim, fault, t);
    }
    assert_eq!(sim.run_until_drained(), DriveOutcome::Completed);
    let events = uninstall().expect("recorder installed").events();
    (sim.into_report(), events)
}

fn apply_serving(sim: &mut ServeSim, fault: Fault) {
    match fault {
        Fault::Crash(idx) => {
            sim.crash_replica(idx);
        }
        Fault::Restart(idx) => sim.restart_replica(idx),
        Fault::Slow(idx, factor) => sim.set_slow_factor(idx, factor),
    }
}

fn apply_disagg(sim: &mut ClusterSim, fault: Fault, t: f64) {
    match fault {
        Fault::Crash(idx) => sim.crash_replica(idx, t),
        Fault::Restart(idx) => sim.restart_replica(idx, t),
        Fault::Slow(idx, factor) => sim.set_slow_factor(idx, factor),
    }
}

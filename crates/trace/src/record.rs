//! Recording serving runs into traces and replaying traces through the
//! serving simulators.
//!
//! Recording canonicalises the arrival stream into a [`Trace`] *first* and
//! then drives the simulation on the canonical stream, so a subsequent
//! [`replay`] of the same trace re-creates the recorder's run bit for bit —
//! completions, goodput, SLO attainment and the SD accept bitstream all match
//! exactly. Everything here is generic over [`Driver`]: hand it a fresh
//! [`ServeSim`] or [`ClusterSim`].

use crate::format::{Trace, TraceError, MAX_PREALLOC};
use crate::stream::TraceReader;
use std::io::Read;
use tlt_obs::{EventKind, ObsEvent, Track, NO_REQ};
use tlt_serve::{
    drive, ClusterReport, ClusterSim, DisaggConfig, Driver, ServeConfig, ServeReport, ServeSim,
};

/// Drives `sim` over `arrivals` while recording the workload (and the run's SD
/// accept stream) into a trace named `name` with time quantum `tick_ns`.
/// Returns the run's report alongside the trace.
pub fn record<D: Driver>(
    name: &str,
    tick_ns: u64,
    mut sim: D,
    arrivals: &[tlt_workload::RequestArrival],
) -> (D::Report, Trace) {
    let mut trace = Trace::from_arrivals(name, tick_ns, arrivals);
    drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    trace.set_sd_accepts(sim.sd_accept_trace());
    (sim.into_report(), trace)
}

/// Emits the [`EventKind::Replay`] marker on the frontend track and sizes the
/// completion log for `expected` requests.
fn begin_replay(sim: &mut impl Driver, requests: u64, tick_ns: u64, expected: usize) {
    tlt_obs::record(
        ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
            .with_args(requests as f64, tick_ns as f64),
    );
    sim.state_mut().reserve_completions(expected);
}

/// Re-drives `sim` from a recorded trace through the recorder's drive loop, so
/// an unmodified trace reproduces the recorder's report bit for bit.
pub fn replay<D: Driver>(trace: &Trace, mut sim: D) -> D::Report {
    let requests = trace.arrivals().len();
    begin_replay(&mut sim, requests as u64, trace.tick_ns(), requests);
    drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    sim.into_report()
}

/// Streamed counterpart of [`replay`]: drives `sim` straight from a
/// [`TraceReader`], so the arrival vector is never materialised. What the run
/// retains is the reader's fixed chunk buffer, the live simulator state and
/// one 72-byte [`tlt_serve::CompletedRequest`] per completed request (the
/// report's `completed`) — nothing per offer or per decode step; the report
/// adds 8 bytes per request of latency scratch while it is built.
///
/// The drive loop and the marker are those of the in-memory path (the marker's
/// request count comes from the header, which the reader verifies against the
/// stream), so replaying the same trace streamed or in-memory produces
/// bit-identical reports and observability streams. A decode or checksum error
/// surfaces as `Err` once the simulator has drained the arrivals seen so far.
pub fn replay_streamed<D: Driver, R: Read>(
    reader: &mut TraceReader<R>,
    mut sim: D,
) -> Result<D::Report, TraceError> {
    let requests = reader.request_count();
    let expected = requests.min(MAX_PREALLOC as u64) as usize;
    begin_replay(&mut sim, requests, reader.tick_ns(), expected);
    let mut decode_err = None;
    let feed = std::iter::from_fn(|| {
        reader.next_arrival().unwrap_or_else(|e| {
            decode_err = Some(e);
            None
        })
    });
    drive(&mut sim, feed, |_, _| {});
    match decode_err {
        Some(e) => Err(e),
        None => Ok(sim.into_report()),
    }
}

/// [`replay`] on a fresh [`ServeSim`]; kept by name for `tlt::run_replay`.
pub fn replay_serving(trace: &Trace, config: &ServeConfig) -> ServeReport {
    replay(trace, ServeSim::new(config))
}

/// [`replay_streamed`] on a fresh [`ServeSim`]; kept by name for
/// `tlt::run_replay_streamed` and the repo benchmark.
pub fn replay_serving_streamed<R: Read>(
    reader: &mut TraceReader<R>,
    config: &ServeConfig,
) -> Result<ServeReport, TraceError> {
    replay_streamed(reader, ServeSim::new(config))
}

/// [`replay`] on a fresh [`ClusterSim`]; kept by name for the repo benchmark.
pub fn replay_disagg(trace: &Trace, config: DisaggConfig) -> ClusterReport {
    replay(trace, ClusterSim::new(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::{GpuType, LlmCostModel};
    use tlt_model::ModelSpec;
    use tlt_rollout::{SdManagerConfig, SdMode};
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    fn config() -> ServeConfig {
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
        let mut config = ServeConfig::new(cost, 2);
        config.kv_memory_fraction = 0.3;
        config.sd_mode = SdMode::Adaptive {
            config: SdManagerConfig::default(),
        };
        config
    }

    #[test]
    fn replay_of_an_unmodified_recording_matches_the_recorded_run() {
        let arrivals = generate_arrivals(&ArrivalConfig::constant(6.0, 20.0, 17));
        let config = config();
        let (recorded, trace) = record("rt", 1, ServeSim::new(&config), &arrivals);
        let replayed = replay_serving(&trace, &config);
        assert_eq!(replayed.completed, recorded.completed);
        assert_eq!(replayed.goodput_rps, recorded.goodput_rps);
        assert_eq!(replayed.slo_attainment, recorded.slo_attainment);
    }

    #[test]
    fn recording_captures_an_sd_stream_when_the_config_speculates() {
        let arrivals = generate_arrivals(&ArrivalConfig::constant(4.0, 15.0, 3));
        let (_, trace) = record("sd", 1_000, ServeSim::new(&config()), &arrivals);
        let accepts = trace.sd_accepts().expect("recorded runs carry SD streams");
        // The default adaptive config speculates at low load.
        assert!(!accepts.is_empty());
        assert!(accepts.iter().all(|&a| a >= 1));
    }
}

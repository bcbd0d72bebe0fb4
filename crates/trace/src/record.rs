//! Recording serving runs into traces and replaying traces through the
//! serving frontends.
//!
//! Recording canonicalises the arrival stream into a [`Trace`] *first* and
//! then drives the simulation on the canonical stream, so a subsequent
//! [`replay_serving`] / [`replay_disagg`] of the same trace re-creates the
//! recorder's run bit for bit — completions, goodput, SLO attainment and the
//! SD accept bitstream all match exactly.

use crate::format::{Trace, TraceError, MAX_PREALLOC};
use crate::stream::TraceReader;
use std::io::Read;
use tlt_obs::{record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_serve::{
    ClusterReport, ClusterSim, DisaggConfig, ServeConfig, ServeReport, ServeRequest, ServeSim,
};
use tlt_workload::ArrivalFeed;

/// Drives a monolithic [`ServeSim`] over `arrivals` while recording the
/// workload (and the run's SD accept stream) into a trace named `name` with
/// time quantum `tick_ns`. Returns the run's report alongside the trace.
pub fn record_serving(
    name: &str,
    tick_ns: u64,
    config: &ServeConfig,
    arrivals: &[tlt_workload::RequestArrival],
) -> (ServeReport, Trace) {
    let mut trace = Trace::from_arrivals(name, tick_ns, arrivals);
    let mut sim = ServeSim::new(config);
    for arrival in trace.arrivals() {
        sim.advance_before(arrival.time_s());
        sim.offer(ServeRequest::from_arrival(arrival));
    }
    sim.run_until_drained();
    trace.set_sd_accepts(sim.sd_accept_trace());
    (sim.into_report(), trace)
}

/// Disaggregated counterpart of [`record_serving`]: drives a [`ClusterSim`]
/// and records the workload plus the decode pool's SD accept stream.
pub fn record_disagg(
    name: &str,
    tick_ns: u64,
    config: DisaggConfig,
    arrivals: &[tlt_workload::RequestArrival],
) -> (ClusterReport, Trace) {
    let mut trace = Trace::from_arrivals(name, tick_ns, arrivals);
    let mut sim = ClusterSim::new(config);
    for arrival in trace.arrivals() {
        sim.advance_before(arrival.time_s());
        sim.offer(ServeRequest::from_arrival(arrival));
    }
    sim.run_until_drained();
    trace.set_sd_accepts(sim.sd_accept_trace());
    (sim.into_report(), trace)
}

/// Re-drives a monolithic frontend from a recorded trace. Emits a
/// [`EventKind::Replay`] marker on the frontend track, then runs the exact
/// drive loop of the recorder, so an unmodified trace reproduces the
/// recorder's report bit for bit.
pub fn replay_serving(trace: &Trace, config: &ServeConfig) -> ServeReport {
    record(
        ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
            .with_args(trace.arrivals().len() as f64, trace.tick_ns() as f64),
    );
    let mut sim = ServeSim::new(config);
    sim.reserve_completions(trace.arrivals().len());
    for arrival in trace.arrivals() {
        sim.advance_before(arrival.time_s());
        sim.offer(ServeRequest::from_arrival(arrival));
    }
    sim.run_until_drained();
    sim.into_report()
}

/// Streamed counterpart of [`replay_serving`]: drives the frontend straight
/// from a [`TraceReader`], so the arrival vector is never materialised. What
/// the run retains is the reader's fixed chunk buffer, the live simulator
/// state and one 72-byte [`tlt_serve::CompletedRequest`] per completed request
/// (the report's `completed`) — nothing per offer or per decode step; the
/// report adds 8 bytes per request of latency scratch while it is built. The
/// completion log is sized once from the header's request count, which is
/// outside input the reader can only verify at end of stream, so the
/// reservation is clamped like every other decode-side pre-allocation.
///
/// The drive loop and the [`EventKind::Replay`] marker are identical to the
/// in-memory path (the marker's request count comes from the header, which the
/// reader verifies against the stream), so replaying the same trace streamed
/// or in-memory produces bit-identical reports and observability streams. A
/// decode or checksum error surfaces as `Err` after the simulator has consumed
/// the arrivals seen so far.
pub fn replay_serving_streamed<R: Read>(
    reader: &mut TraceReader<R>,
    config: &ServeConfig,
) -> Result<ServeReport, TraceError> {
    record(
        ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
            .with_args(reader.request_count() as f64, reader.tick_ns() as f64),
    );
    let mut sim = ServeSim::new(config);
    sim.reserve_completions(reader.request_count().min(MAX_PREALLOC as u64) as usize);
    let mut decode_err = None;
    let mut feed = std::iter::from_fn(|| match reader.next_arrival() {
        Ok(next) => next,
        Err(e) => {
            decode_err = Some(e);
            None
        }
    });
    while let Some(arrival) = feed.next_arrival() {
        sim.advance_before(arrival.time_s());
        sim.offer(ServeRequest::from_arrival(&arrival));
    }
    if let Some(e) = decode_err {
        return Err(e);
    }
    sim.run_until_drained();
    Ok(sim.into_report())
}

/// Disaggregated counterpart of [`replay_serving`].
pub fn replay_disagg(trace: &Trace, config: DisaggConfig) -> ClusterReport {
    record(
        ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
            .with_args(trace.arrivals().len() as f64, trace.tick_ns() as f64),
    );
    let mut sim = ClusterSim::new(config);
    sim.reserve_completions(trace.arrivals().len());
    for arrival in trace.arrivals() {
        sim.advance_before(arrival.time_s());
        sim.offer(ServeRequest::from_arrival(arrival));
    }
    sim.run_until_drained();
    sim.into_report()
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
        let (recorded, trace) = record_serving("rt", 1, &config, &arrivals);
        let replayed = replay_serving(&trace, &config);
        assert_eq!(replayed.completed, recorded.completed);
        assert_eq!(replayed.goodput_rps, recorded.goodput_rps);
        assert_eq!(replayed.slo_attainment, recorded.slo_attainment);
    }

    #[test]
    fn recording_captures_an_sd_stream_when_the_config_speculates() {
        let arrivals = generate_arrivals(&ArrivalConfig::constant(4.0, 15.0, 3));
        let (_, trace) = record_serving("sd", 1_000, &config(), &arrivals);
        let accepts = trace.sd_accepts().expect("recorded runs carry SD streams");
        // The default adaptive config speculates at low load.
        assert!(!accepts.is_empty());
        assert!(accepts.iter().all(|&a| a >= 1));
    }
}

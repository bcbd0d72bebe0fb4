//! The autoscaler-churn run shared by the `trace_replay`, `event_core` and
//! `alloc_free_decode` suites: the committed `batch_rl` corpus trace (eight
//! bursts of 96 simultaneous requests) compressed 2x onto a 1P+1D cluster
//! whose autoscaler ticks every 0.25 s and warms a replica in 0.1 s. Every
//! burst grows both pools to their ceilings and the lull after it drains them
//! back, and a retired replica is never reused, so the pools end with 75
//! retired members beside a handful of live ones: the state the short
//! serving tests never reach.

use tlt::replay_deployment;
use tlt_serve::{AutoscaleConfig, DisaggConfig};
use tlt_trace::Trace;

/// Retirements the churn run must reach for its suites to mean anything.
pub const MIN_RETIRES: u64 = 50;

pub fn trace() -> Trace {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/batch_rl.tltr");
    Trace::read_file(path)
        .expect("committed batch_rl trace")
        .rate_scaled(2.0)
}

pub fn config() -> DisaggConfig {
    DisaggConfig::new(replay_deployment(1), 1, 1).with_autoscale(AutoscaleConfig {
        interval_s: 0.25,
        min_prefill: 1,
        max_prefill: 4,
        min_decode: 1,
        max_decode: 8,
        prefill_queue_high: 2.0,
        prefill_queue_low: 0.25,
        decode_tokens_high: 4_000.0,
        decode_tokens_low: 500.0,
        spawn_delay_s: 0.1,
    })
}

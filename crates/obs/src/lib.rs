//! # tlt-obs — structured tracing and a flight recorder
//!
//! Observability substrate for the TLT stack. Everything here is keyed to
//! **sim time, not wall clock**, so traces are a pure function of the seed:
//! two runs with the same configuration produce byte-identical trace
//! exports. The crate sits at the bottom of the workspace DAG (it depends
//! only on `std`) so every layer — model, serve, rollout, chaos, bench — can
//! emit into the same recorder without dependency cycles.
//!
//! ## Pieces
//!
//! - [`event`] — the span/instant vocabulary: [`Track`] timelines (frontend,
//!   per-replica, coordinator, rollout) and [`EventKind`]s covering the
//!   request lifecycle (arrival → admission → prefill → decode / SD rounds →
//!   completion / preemption / failover / crash / restart).
//! - [`recorder`] — the fixed-capacity [`FlightRecorder`] (last-N events per
//!   track, oldest evicted on wraparound) behind a thread-local install
//!   point. A disabled [`record`] call is a single relaxed atomic load.
//! - [`trace`] — exporters: Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto) and readable crash postmortems, both
//!   rendered through the deterministic [`JsonValue`] writer.
//! - [`hooks`] — allocation-free global counters for the model decode hot
//!   path (enforced by `tests/alloc_free_decode.rs`).
//! - [`json`] — the workspace's one hand-rolled JSON emitter (moved here from
//!   `tlt-bench` so trace export and bench reports share it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod hooks;
pub mod json;
pub mod recorder;
pub mod trace;

pub use event::{EventKind, ObsEvent, Track, NO_REQ};
pub use json::JsonValue;
pub use recorder::{install, record, uninstall, FlightRecorder, DEFAULT_CAPACITY_PER_TRACK};
pub use trace::{chrome_trace, chrome_trace_sections, render_postmortem};

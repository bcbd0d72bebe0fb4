//! # tlt-trace
//!
//! Trace-driven workload record & replay for the TLT serving subsystem.
//!
//! Every scheduler comparison before this crate re-synthesised its arrival
//! stream, so cross-PR comparisons conflated scheduler changes with workload
//! drift. This crate makes the workload a first-class, versioned artifact:
//!
//! - [`Trace`] — the **TLTR v1** compact binary format (delta-encoded arrival
//!   ticks, varint token counts, prefix-relation back-references, an optional
//!   unary SD accept bitstream, FNV-1a 64 checksum), a few bytes per request
//!   in the spirit of cbp-experiments' 0.1–1.2 bits/branch traces.
//! - [`record()`] — run a simulation (any [`tlt_serve::Driver`]) while
//!   capturing its workload (and SD accept stream) into a trace.
//! - [`replay`] — re-drive a simulator from a trace, bit-deterministically;
//!   an unmodified recording reproduces the recorder's report exactly.
//! - [`TraceReader`] / [`TraceWriter`] / [`replay_streamed`] —
//!   chunked, constant-memory TLTR I/O: replay a million-request trace
//!   through a fixed 64 KiB window without ever materialising the arrival
//!   vector.
//! - Transforms ([`Trace::rate_scaled`], [`Trace::storm_injected`],
//!   [`Trace::tenant_shuffled`]) — deterministic workload variants.
//! - [`CorpusPreset`] — the four pinned workloads committed under `corpus/`;
//!   [`write_derived_trace`] scales them to a derived million-request stream
//!   with a pinned checksum.
//!
//! ```
//! use tlt_trace::{CorpusPreset, Trace};
//!
//! let trace = CorpusPreset::Chat.build();
//! let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
//! assert_eq!(decoded, trace);
//! assert!(decoded.stats().bytes_per_request() <= 8.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod format;
pub mod million;
pub mod record;
pub mod stream;
pub mod transform;

pub use corpus::{CorpusPreset, CORPUS_TICK_NS};
pub use format::{Trace, TraceError, TraceStats, MAGIC, MAX_SD_ACCEPT, PREFIX_WINDOW, VERSION};
pub use million::{
    derived_trace_checksum, write_derived_trace, MILLION_CHECKSUM, MILLION_REQUESTS,
};
pub use record::{
    record, replay, replay_disagg, replay_serving, replay_serving_streamed, replay_streamed,
};
pub use stream::{TraceReader, TraceWriter, DEFAULT_CHUNK_BYTES};

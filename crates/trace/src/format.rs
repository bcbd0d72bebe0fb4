//! The TLTR v1 compact binary serving-trace format.
//!
//! Modelled on branch-trace formats like cbp-experiments (0.1–1.2 bits per
//! branch), the encoding targets a few **bytes per request**:
//!
//! ```text
//! offset  field
//! ------  -----------------------------------------------------------------
//! 0       magic "TLTR" (4 bytes)
//! 4       version (u8, currently 1)
//! 5       flags (u8; bit 0 = SD bitstream section present)
//! 6       name length (u8) followed by that many UTF-8 bytes
//! ..      tick_ns (varint)          time quantum of the trace
//! ..      request_count (varint)
//! ..      request records           (see below, one per request)
//! ..      [SD section]              varint step count + unary bitstream
//! end-8   FNV-1a 64 checksum (little-endian) over all preceding bytes
//! ```
//!
//! Each request record is:
//!
//! ```text
//! varint  delta ticks since the previous request's arrival
//! varint  prompt_len
//! varint  output_len
//! varint  prefix tag: 0 = no shared prefix
//!                     1 = new prefix group (+ varint prefix_id, varint len)
//!                     k >= 2 = back-reference to the (k-1)-th most recent
//!                              preceding prefix-bearing request, distance
//!                              k-1 <= PREFIX_WINDOW (63)
//!                              (+ zigzag varint prefix-length delta)
//! ```
//!
//! Request ids are implicit (index order) and arrival times are reconstructed
//! from the deltas, so a decoded trace is already in the canonical shape the
//! serving frontends expect: sorted by time with sequential ids.
//!
//! The codec is [`TraceWriter`] / [`TraceReader`]; [`Trace`]'s byte and file
//! methods run them.

use crate::stream::{TraceReader, TraceWriter};
use std::fmt;
use std::io::Read;
use tlt_workload::RequestArrival;

/// File magic: the first four bytes of every TLTR trace.
pub const MAGIC: [u8; 4] = *b"TLTR";

/// Current format version.
pub const VERSION: u8 = 1;

/// Flag bit 0: an SD accept-length bitstream section follows the requests.
pub(crate) const FLAG_SD: u8 = 1;

/// How far back a prefix back-reference may reach: the writer searches this
/// many groups (longer gaps re-state the group id) and the reader rejects a
/// deeper reference.
pub const PREFIX_WINDOW: usize = 63;

/// Largest accept length one SD step can carry in the unary bitstream.
pub const MAX_SD_ACCEPT: u8 = 63;

/// Decode guard: refuse to pre-allocate for more requests than this before
/// the record bytes have actually been seen.
pub(crate) const MAX_PREALLOC: usize = 1 << 20;

/// Typed decode / IO error for TLTR traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the TLTR magic.
    BadMagic,
    /// The file is a TLTR trace of a version this build cannot read.
    UnsupportedVersion(u8),
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The checksum does not match the payload.
    Corrupt {
        /// Checksum recomputed over the payload.
        expected: u64,
        /// Checksum stored in the file.
        actual: u64,
    },
    /// The structure decoded but violates a format invariant.
    Malformed(&'static str),
    /// An underlying filesystem error (message of the `std::io::Error`).
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a TLTR trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported TLTR version {v}"),
            TraceError::Truncated => write!(f, "truncated TLTR trace"),
            TraceError::Corrupt { expected, actual } => write!(
                f,
                "corrupt TLTR trace: checksum {actual:#018x}, expected {expected:#018x}"
            ),
            TraceError::Malformed(what) => write!(f, "malformed TLTR trace: {what}"),
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Size accounting of an encoded trace, reported in the replay tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total encoded size on disk, checksum included.
    pub total_bytes: usize,
    /// Bytes spent on the fixed header (magic through request count).
    pub header_bytes: usize,
    /// Bytes spent on the per-request records.
    pub request_bytes: usize,
    /// Bytes spent on the SD bitstream section (0 without one).
    pub sd_bytes: usize,
    /// Requests in the trace.
    pub requests: usize,
    /// SD steps in the bitstream (0 without one).
    pub sd_steps: usize,
}

impl TraceStats {
    /// Average encoded bytes per request (total size over request count).
    pub fn bytes_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.requests as f64
        }
    }

    /// Average encoded bits per event, where every request arrival and every
    /// SD step counts as one event — the cbp-style density figure.
    pub fn bits_per_event(&self) -> f64 {
        let events = self.requests + self.sd_steps;
        if events == 0 {
            0.0
        } else {
            self.total_bytes as f64 * 8.0 / events as f64
        }
    }
}

/// A recorded serving workload: named, tick-quantised arrivals plus an
/// optional SD accept-length bitstream captured from a recorded run.
///
/// Invariants (maintained by every constructor and decoder): arrivals are
/// sorted by `time_ns`, ids are sequential from 0, and every `time_ns` is a
/// multiple of `tick_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    tick_ns: u64,
    arrivals: Vec<RequestArrival>,
    sd_accepts: Option<Vec<u8>>,
}

impl Trace {
    /// Canonicalises `arrivals` into a trace: times are quantised down to
    /// `tick_ns` ticks and ids reassigned sequentially. The input must already
    /// be sorted by time (the contract of `generate_arrivals` /
    /// `merge_arrival_streams`).
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is 0, the name exceeds 255 bytes, or the input is
    /// not time-sorted.
    pub fn from_arrivals(name: &str, tick_ns: u64, arrivals: &[RequestArrival]) -> Self {
        assert!(tick_ns >= 1, "trace tick must be at least 1 ns");
        assert!(name.len() <= 255, "trace name must fit in 255 bytes");
        assert!(
            arrivals.windows(2).all(|w| w[0].time_ns <= w[1].time_ns),
            "arrivals must be sorted by time"
        );
        let arrivals = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| RequestArrival {
                id: i as u64,
                time_ns: (a.time_ns / tick_ns) * tick_ns,
                ..*a
            })
            .collect();
        Trace {
            name: name.to_string(),
            tick_ns,
            arrivals,
            sd_accepts: None,
        }
    }

    /// The workload name stored in the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time quantum of the trace in nanoseconds.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// The canonical arrival stream (sorted, sequential ids, tick-aligned).
    pub fn arrivals(&self) -> &[RequestArrival] {
        &self.arrivals
    }

    /// The recorded SD accept-length stream, if this trace carries one.
    pub fn sd_accepts(&self) -> Option<&[u8]> {
        self.sd_accepts.as_deref()
    }

    /// Attaches a recorded SD accept-length stream (values clamped to
    /// `1..=MAX_SD_ACCEPT` by the recorder).
    pub fn set_sd_accepts(&mut self, accepts: Vec<u8>) {
        assert!(
            accepts.iter().all(|&a| (1..=MAX_SD_ACCEPT).contains(&a)),
            "SD accept lengths must be in 1..={MAX_SD_ACCEPT}"
        );
        self.sd_accepts = Some(accepts);
    }

    /// The same trace without its SD section (transforms drop it because the
    /// recorded accept stream no longer corresponds to the edited workload).
    pub fn without_sd(&self) -> Self {
        Trace {
            sd_accepts: None,
            ..self.clone()
        }
    }

    /// Encodes the trace to its on-disk byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode().0
    }

    /// Encoded-size accounting for the replay report tables.
    pub fn stats(&self) -> TraceStats {
        let (bytes, header_end, requests_end) = self.encode();
        TraceStats {
            total_bytes: bytes.len(),
            header_bytes: header_end,
            request_bytes: requests_end - header_end,
            sd_bytes: bytes.len() - 8 - requests_end,
            requests: self.arrivals.len(),
            sd_steps: self.sd_accepts.as_ref().map_or(0, Vec::len),
        }
    }

    /// Runs the arrivals (and the SD section) through a [`TraceWriter`]:
    /// the bytes plus where the header and the request records end.
    fn encode(&self) -> (Vec<u8>, usize, usize) {
        let mut out = Vec::with_capacity(16 + self.name.len() + 6 * self.arrivals.len());
        let count = self.arrivals.len() as u64;
        let sd = self.sd_accepts.as_deref();
        let mut writer =
            TraceWriter::start(&mut out, &self.name, self.tick_ns, count, sd.is_some())
                .expect("a Vec sink cannot fail");
        let header_end = writer.bytes;
        for a in &self.arrivals {
            writer.push(a).expect("canonical arrivals encode");
        }
        let requests_end = writer.bytes;
        writer
            .finish_with_sd(sd)
            .expect("every declared request was pushed");
        (out, header_end, requests_end)
    }

    /// Decodes a trace from its on-disk byte representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Trace::decode(TraceReader::open(bytes)?)
    }

    /// Drains `reader` into a trace, keeping its SD section.
    fn decode<R: Read>(mut reader: TraceReader<R>) -> Result<Self, TraceError> {
        if reader.has_sd() {
            reader.kept_sd = Some(Vec::new());
        }
        let count = reader.request_count().min(MAX_PREALLOC as u64) as usize;
        let mut arrivals = Vec::with_capacity(count);
        while let Some(a) = reader.next_arrival()? {
            arrivals.push(a);
        }
        Ok(Trace {
            name: reader.name().to_string(),
            tick_ns: reader.tick_ns(),
            arrivals,
            sd_accepts: reader.kept_sd.take(),
        })
    }

    /// Writes the encoded trace to `path`.
    pub fn write_file(&self, path: &str) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Reads and decodes a trace from `path`, streaming the file through
    /// the reader's chunk buffer.
    pub fn read_file(path: &str) -> Result<Self, TraceError> {
        Trace::decode(TraceReader::<std::fs::File>::open_file(path)?)
    }
}

/// LEB128 unsigned varint encoder.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a signed value so small magnitudes stay small varints.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64 initial state of the trace checksum.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state (the reader and writer hash
/// bytes as they pass).
pub(crate) fn fnv1a_64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    /// FNV-1a 64-bit hash of a whole buffer, the trace checksum.
    pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
        fnv1a_64_update(FNV_OFFSET_BASIS, bytes)
    }

    fn sample_trace(prefix: bool) -> Trace {
        let mut config = ArrivalConfig::constant(20.0, 30.0, 42);
        if prefix {
            config = config.with_prefix(0.6, 128);
        }
        Trace::from_arrivals("sample", 1_000, &generate_arrivals(&config))
    }

    #[test]
    fn varints_round_trip() {
        // Each value is the header's request count (and, when non-zero, its
        // tick), which the reader decodes through its varint path.
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut bytes = header(v.max(1), v);
            let len = bytes.len();
            let reader = TraceReader::open(&bytes[..]).unwrap();
            assert_eq!((reader.tick_ns(), reader.request_count()), (v.max(1), v));
            // One byte short of the count's last byte is a truncation.
            bytes.truncate(len - 1);
            assert!(matches!(
                TraceReader::open(&bytes[..]),
                Err(TraceError::Truncated)
            ));
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a 64 test vector.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn encode_decode_round_trips_without_prefixes() {
        let trace = sample_trace(false);
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn encode_decode_round_trips_with_prefix_backrefs() {
        let trace = sample_trace(true);
        assert!(trace.arrivals().iter().any(|a| a.prefix_id != 0));
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn sd_bitstream_round_trips() {
        let mut trace = sample_trace(false);
        trace.set_sd_accepts(vec![1, 2, 63, 1, 5, 4, 4, 4]);
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded.sd_accepts(), trace.sd_accepts());
        assert_eq!(decoded, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::from_arrivals("empty", 1, &[]);
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.stats().bytes_per_request(), 0.0);
    }

    #[test]
    fn quantisation_aligns_times_and_reassigns_ids() {
        let arrivals = generate_arrivals(&ArrivalConfig::constant(50.0, 10.0, 7));
        let trace = Trace::from_arrivals("q", 1_000_000, &arrivals);
        for (i, a) in trace.arrivals().iter().enumerate() {
            assert_eq!(a.id, i as u64);
            assert_eq!(a.time_ns % 1_000_000, 0);
        }
        assert_eq!(trace.arrivals().len(), arrivals.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_trace(false).to_bytes();
        bytes[0] = b'X';
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
        assert_eq!(Trace::from_bytes(b"TL"), Err(TraceError::Truncated));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_trace(false).to_bytes();
        bytes[4] = 9;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_trace(true).to_bytes();
        // Any truncation point must yield a typed error, never a panic or an
        // accidentally valid trace.
        for cut in [5, 12, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::Corrupt { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn checksum_flip_is_rejected_as_corrupt() {
        let mut bytes = sample_trace(false).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn payload_flip_is_rejected() {
        let trace = sample_trace(true);
        let bytes = trace.to_bytes();
        // Flip one byte in the middle of the request records: either the
        // structure breaks (typed error) or the checksum catches it.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x55;
        assert!(Trace::from_bytes(&flipped).is_err());
    }

    /// An unnamed, flag-less TLTR header.
    fn header(tick_ns: u64, requests: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[VERSION, 0, 0]);
        put_varint(&mut bytes, tick_ns);
        put_varint(&mut bytes, requests);
        bytes
    }

    /// `records` (each a list of varint fields) under a tick-1 header and a
    /// valid checksum.
    fn hand_built(records: &[Vec<u64>]) -> Vec<u8> {
        let mut bytes = header(1, records.len() as u64);
        for v in records.iter().flatten() {
            put_varint(&mut bytes, *v);
        }
        let checksum = fnv1a_64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Two requests: a new prefix group of length 1, then a back-reference
    /// to it whose length delta is `delta`, under a valid checksum.
    pub(crate) fn back_reference_bytes(delta: i64) -> Vec<u8> {
        // ticks, lens, then new group 1 of length 1 / back-reference 1, delta.
        hand_built(&[vec![0, 1, 1, 1, 1, 1], vec![0, 1, 1, 2, zigzag(delta)]])
    }

    #[test]
    fn back_reference_beyond_the_window_is_rejected() {
        // Groups 1..=64, then a reference to group 1, 64 groups back.
        let groups = PREFIX_WINDOW as u64 + 1;
        let mut records: Vec<Vec<u64>> = (1..=groups).map(|id| vec![0, 1, 1, 1, id, 1]).collect();
        records.push(vec![0, 1, 1, 1 + groups, zigzag(0)]);
        assert_eq!(
            Trace::from_bytes(&hand_built(&records)),
            Err(TraceError::Malformed(
                "prefix back-reference beyond PREFIX_WINDOW"
            ))
        );
        // One group fewer is the deepest reference the format allows.
        records.remove(0);
        let last = records.len() - 1;
        records[last][3] -= 1;
        let decoded = Trace::from_bytes(&hand_built(&records)).unwrap();
        assert_eq!(decoded.arrivals()[last].prefix_id, 2);
    }

    #[test]
    fn prefix_length_overflow_is_rejected() {
        let decoded = Trace::from_bytes(&back_reference_bytes(2)).unwrap();
        assert_eq!(decoded.arrivals()[1].prefix_len, 3);
        assert_eq!(
            Trace::from_bytes(&back_reference_bytes(i64::MAX)),
            Err(TraceError::Malformed("prefix length overflows"))
        );
    }

    #[test]
    fn stats_sections_add_up() {
        let mut trace = sample_trace(true);
        trace.set_sd_accepts(vec![3; 100]);
        let stats = trace.stats();
        assert_eq!(
            stats.header_bytes + stats.request_bytes + stats.sd_bytes + 8,
            stats.total_bytes
        );
        assert_eq!(stats.requests, trace.arrivals().len());
        assert_eq!(stats.sd_steps, 100);
        assert!(stats.bits_per_event() > 0.0);
        // The unary SD section costs ~(3+1) bits per step.
        assert!(stats.sd_bytes <= 100 / 2 + 8);
    }
}

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
//!                              preceding prefix-bearing request
//!                              (+ zigzag varint prefix-length delta)
//! ```
//!
//! Request ids are implicit (index order) and arrival times are reconstructed
//! from the deltas, so a decoded trace is already in the canonical shape the
//! serving frontends expect: sorted by time with sequential ids.

use std::fmt;
use tlt_workload::RequestArrival;

/// File magic: the first four bytes of every TLTR trace.
pub const MAGIC: [u8; 4] = *b"TLTR";

/// Current format version.
pub const VERSION: u8 = 1;

/// Flag bit 0: an SD accept-length bitstream section follows the requests.
pub(crate) const FLAG_SD: u8 = 1;

/// How far back the encoder searches for a prefix back-reference. Bounds
/// encoder cost (and the streaming reader's prefix ring); longer gaps fall
/// back to re-stating the group id.
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

    /// Builder form of [`Trace::set_sd_accepts`].
    pub fn with_sd_accepts(mut self, accepts: Vec<u8>) -> Self {
        self.set_sd_accepts(accepts);
        self
    }

    /// The same trace without its SD section (transforms drop it because the
    /// recorded accept stream no longer corresponds to the edited workload).
    pub fn without_sd(&self) -> Self {
        Trace {
            sd_accepts: None,
            ..self.clone()
        }
    }

    /// A copy with a different workload name (used by the transforms).
    pub fn renamed(&self, name: &str) -> Self {
        assert!(name.len() <= 255, "trace name must fit in 255 bytes");
        Trace {
            name: name.to_string(),
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

    fn encode(&self) -> (Vec<u8>, usize, usize) {
        let mut out = Vec::with_capacity(16 + self.name.len() + 6 * self.arrivals.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(if self.sd_accepts.is_some() {
            FLAG_SD
        } else {
            0
        });
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        put_varint(&mut out, self.tick_ns);
        put_varint(&mut out, self.arrivals.len() as u64);
        let header_end = out.len();

        let mut prev_ticks = 0u64;
        // Prefix groups seen so far, most recent last, for back-references.
        let mut recent: Vec<(u64, usize)> = Vec::new();
        for a in &self.arrivals {
            let ticks = a.time_ns / self.tick_ns;
            put_varint(&mut out, ticks - prev_ticks);
            prev_ticks = ticks;
            put_varint(&mut out, a.prompt_len as u64);
            put_varint(&mut out, a.output_len as u64);
            if a.prefix_id == 0 {
                put_varint(&mut out, 0);
            } else {
                let hit = recent
                    .iter()
                    .rev()
                    .take(PREFIX_WINDOW)
                    .position(|&(id, _)| id == a.prefix_id)
                    .map(|d| (d + 1, recent[recent.len() - 1 - d].1));
                match hit {
                    Some((distance, prev_len)) => {
                        put_varint(&mut out, 1 + distance as u64);
                        put_varint(&mut out, zigzag(a.prefix_len as i64 - prev_len as i64));
                    }
                    None => {
                        put_varint(&mut out, 1);
                        put_varint(&mut out, a.prefix_id);
                        put_varint(&mut out, a.prefix_len as u64);
                    }
                }
                recent.push((a.prefix_id, a.prefix_len));
            }
        }
        let requests_end = out.len();

        if let Some(accepts) = &self.sd_accepts {
            put_varint(&mut out, accepts.len() as u64);
            let mut bits = BitWriter::new();
            for &a in accepts {
                for _ in 0..a.clamp(1, MAX_SD_ACCEPT) {
                    bits.push(true);
                }
                bits.push(false);
            }
            out.extend_from_slice(&bits.finish());
        }

        let checksum = fnv1a_64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        (out, header_end, requests_end)
    }

    /// Decodes a trace from its on-disk byte representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < 4 {
            return Err(TraceError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut pos = 4usize;
        let version = take_u8(bytes, &mut pos)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let flags = take_u8(bytes, &mut pos)?;
        if flags & !FLAG_SD != 0 {
            return Err(TraceError::Malformed("unknown flag bits set"));
        }
        let name_len = take_u8(bytes, &mut pos)? as usize;
        if pos + name_len > bytes.len() {
            return Err(TraceError::Truncated);
        }
        let name = std::str::from_utf8(&bytes[pos..pos + name_len])
            .map_err(|_| TraceError::Malformed("trace name is not UTF-8"))?
            .to_string();
        pos += name_len;
        let tick_ns = get_varint(bytes, &mut pos)?;
        if tick_ns == 0 {
            return Err(TraceError::Malformed("tick must be non-zero"));
        }
        let count = get_varint(bytes, &mut pos)? as usize;

        let mut arrivals = Vec::with_capacity(count.min(MAX_PREALLOC));
        let mut ticks = 0u64;
        let mut recent: Vec<(u64, usize)> = Vec::new();
        for id in 0..count {
            let delta = get_varint(bytes, &mut pos)?;
            ticks = ticks
                .checked_add(delta)
                .ok_or(TraceError::Malformed("arrival tick overflows"))?;
            let time_ns = ticks
                .checked_mul(tick_ns)
                .ok_or(TraceError::Malformed("arrival time overflows"))?;
            let prompt_len = get_varint(bytes, &mut pos)? as usize;
            let output_len = get_varint(bytes, &mut pos)? as usize;
            let tag = get_varint(bytes, &mut pos)?;
            let (prefix_id, prefix_len) = match tag {
                0 => (0, 0),
                1 => {
                    let prefix_id = get_varint(bytes, &mut pos)?;
                    if prefix_id == 0 {
                        return Err(TraceError::Malformed("new prefix group with id 0"));
                    }
                    let prefix_len = get_varint(bytes, &mut pos)? as usize;
                    (prefix_id, prefix_len)
                }
                back => {
                    let distance = (back - 1) as usize;
                    if distance > recent.len() {
                        return Err(TraceError::Malformed("prefix back-reference out of range"));
                    }
                    let (prefix_id, prev_len) = recent[recent.len() - distance];
                    let delta = unzigzag(get_varint(bytes, &mut pos)?);
                    let prefix_len = (prev_len as i64)
                        .checked_add(delta)
                        .ok_or(TraceError::Malformed("prefix length overflows"))?;
                    if prefix_len < 0 {
                        return Err(TraceError::Malformed("negative prefix length"));
                    }
                    (prefix_id, prefix_len as usize)
                }
            };
            if prefix_id != 0 {
                recent.push((prefix_id, prefix_len));
            }
            arrivals.push(RequestArrival {
                id: id as u64,
                time_ns,
                prompt_len,
                output_len,
                prefix_id,
                prefix_len,
            });
        }

        let sd_accepts = if flags & FLAG_SD != 0 {
            let steps = get_varint(bytes, &mut pos)? as usize;
            let mut reader = BitReader::new(bytes, &mut pos);
            let mut accepts = Vec::with_capacity(steps.min(MAX_PREALLOC));
            for _ in 0..steps {
                let mut run = 0u64;
                while reader.read()? {
                    run += 1;
                    if run > u64::from(MAX_SD_ACCEPT) {
                        return Err(TraceError::Malformed("SD accept run exceeds the cap"));
                    }
                }
                if run == 0 {
                    return Err(TraceError::Malformed("SD step with zero accepted tokens"));
                }
                accepts.push(run as u8);
            }
            pos = reader.finish();
            Some(accepts)
        } else {
            None
        };

        if pos + 8 > bytes.len() {
            return Err(TraceError::Truncated);
        }
        if pos + 8 < bytes.len() {
            return Err(TraceError::Malformed("trailing bytes after checksum"));
        }
        let expected = fnv1a_64(&bytes[..pos]);
        let actual = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        if expected != actual {
            return Err(TraceError::Corrupt { expected, actual });
        }

        Ok(Trace {
            name,
            tick_ns,
            arrivals,
            sd_accepts,
        })
    }

    /// Writes the encoded trace to `path`.
    pub fn write_file(&self, path: &str) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Reads and decodes a trace from `path`.
    pub fn read_file(path: &str) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Trace::from_bytes(&bytes)
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

/// LEB128 unsigned varint decoder.
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut value = 0u64;
    for shift in 0..10 {
        let byte = take_u8(bytes, pos)?;
        if shift == 9 && byte > 1 {
            return Err(TraceError::Malformed("varint overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(TraceError::Malformed("varint longer than 10 bytes"))
}

pub(crate) fn take_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, TraceError> {
    let b = *bytes.get(*pos).ok_or(TraceError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// Zigzag-encodes a signed value so small magnitudes stay small varints.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64-bit hash, the trace checksum.
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_update(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a 64 initial state, for incremental (streaming) hashing.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state (the streaming reader and
/// writer hash bytes as they pass instead of re-walking the whole buffer).
pub(crate) fn fnv1a_64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// MSB-first bit accumulator for the SD section.
struct BitWriter {
    bytes: Vec<u8>,
    current: u8,
    used: u8,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            bytes: Vec::new(),
            current: 0,
            used: 0,
        }
    }

    fn push(&mut self, bit: bool) {
        self.current = (self.current << 1) | u8::from(bit);
        self.used += 1;
        if self.used == 8 {
            self.bytes.push(self.current);
            self.current = 0;
            self.used = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.bytes.push(self.current << (8 - self.used));
        }
        self.bytes
    }
}

/// MSB-first bit reader over a byte slice starting at `*pos`; [`finish`]
/// advances the position past the last (possibly partial) byte consumed.
///
/// [`finish`]: BitReader::finish
struct BitReader<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8], pos: &mut usize) -> Self {
        BitReader {
            bytes,
            byte_pos: *pos,
            bit: 0,
        }
    }

    fn read(&mut self) -> Result<bool, TraceError> {
        let byte = *self.bytes.get(self.byte_pos).ok_or(TraceError::Truncated)?;
        let bit = (byte >> (7 - self.bit)) & 1 == 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte_pos += 1;
        }
        Ok(bit)
    }

    fn finish(self) -> usize {
        self.byte_pos + usize::from(self.bit > 0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    fn sample_trace(prefix: bool) -> Trace {
        let mut config = ArrivalConfig::constant(20.0, 30.0, 42);
        if prefix {
            config = config.with_prefix(0.6, 128);
        }
        Trace::from_arrivals("sample", 1_000, &generate_arrivals(&config))
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
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
        let trace = sample_trace(false).with_sd_accepts(vec![1, 2, 63, 1, 5, 4, 4, 4]);
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

    /// Two requests: a new prefix group of length 1, then a back-reference
    /// to it whose length delta is `delta`, under a valid checksum.
    pub(crate) fn back_reference_bytes(delta: i64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[VERSION, 0, 0]);
        for v in [1, 2] {
            put_varint(&mut bytes, v); // tick_ns, request count
        }
        for v in [0, 1, 1, 1, 1, 1] {
            put_varint(&mut bytes, v); // ticks, lens, new group 1 of length 1
        }
        for v in [0, 1, 1, 2, zigzag(delta)] {
            put_varint(&mut bytes, v); // ticks, lens, back-reference 1, delta
        }
        let checksum = fnv1a_64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
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
        let trace = sample_trace(true).with_sd_accepts(vec![3; 100]);
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

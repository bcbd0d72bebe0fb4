//! The TLTR codec: chunked, constant-memory encode and decode.
//!
//! * [`TraceWriter`] encodes arrivals one at a time into any [`Write`] sink,
//!   hashing bytes as they pass (the header carries the request count, so the
//!   count is declared up front).
//! * [`TraceReader`] decodes arrivals one at a time from any [`Read`] source
//!   through a fixed-size chunk buffer: steady-state decode performs **no
//!   heap allocation per request** (enforced by the counting-allocator
//!   harness in `tests/alloc_free_decode.rs`).
//!
//! They are the only encoder and decoder: [`Trace::to_bytes`],
//! [`Trace::from_bytes`] and [`Trace::read_file`] run them over a `Vec`, a
//! slice or a file, keeping the SD section a streamed replay only validates.
//!
//! Both sides keep the prefix back-reference window as a fixed
//! [`PREFIX_WINDOW`]-slot ring: the format bounds back-reference distances
//! to that window, so a deeper hand-crafted reference is rejected with a
//! typed error. The FNV-1a checksum accumulates over every consumed byte and
//! is validated against the trailer once the final record (and any SD
//! section) has been read, so a decode that returns `Ok(None)` has fully
//! verified the stream, a few kilobytes at a time.
//!
//! [`Trace::to_bytes`]: crate::Trace::to_bytes
//! [`Trace::from_bytes`]: crate::Trace::from_bytes
//! [`Trace::read_file`]: crate::Trace::read_file
//! [`PREFIX_WINDOW`]: crate::format::PREFIX_WINDOW

use crate::format::{
    self, fnv1a_64_update, put_varint, TraceError, FLAG_SD, FNV_OFFSET_BASIS, MAGIC, MAX_PREALLOC,
    MAX_SD_ACCEPT, PREFIX_WINDOW, VERSION,
};
use std::io::{Read, Write};
use tlt_workload::RequestArrival;

/// Default chunk-buffer capacity of a [`TraceReader`]: the whole working set
/// of a streamed decode, independent of trace length.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Smallest usable chunk capacity (one maximal varint plus the checksum
/// trailer must fit contiguously).
const MIN_CHUNK_BYTES: usize = 16;

fn io_err(e: std::io::Error) -> TraceError {
    TraceError::Io(e.to_string())
}

/// Fixed-size most-recent-first ring over the prefix groups seen so far,
/// sized to the format's back-reference window.
#[derive(Debug, Clone)]
struct PrefixRing {
    slots: [(u64, usize); PREFIX_WINDOW],
    filled: usize,
    head: usize,
}

impl PrefixRing {
    fn new() -> Self {
        PrefixRing {
            slots: [(0, 0); PREFIX_WINDOW],
            filled: 0,
            head: 0,
        }
    }

    fn push(&mut self, id: u64, len: usize) {
        self.slots[self.head] = (id, len);
        self.head = (self.head + 1) % PREFIX_WINDOW;
        if self.filled < PREFIX_WINDOW {
            self.filled += 1;
        }
    }

    /// The entry `distance` steps back (1 = most recent), if retained.
    fn get(&self, distance: usize) -> Option<(u64, usize)> {
        if distance == 0 || distance > self.filled {
            return None;
        }
        Some(self.slots[(self.head + PREFIX_WINDOW - distance) % PREFIX_WINDOW])
    }

    /// Most-recent match for `id`: `(distance, stored prefix length)`,
    /// searching newest-first.
    fn find(&self, id: u64) -> Option<(usize, usize)> {
        (1..=self.filled).find_map(|d| {
            let (rid, rlen) = self.get(d).expect("within filled");
            (rid == id).then_some((d, rlen))
        })
    }

    fn retained(&self) -> usize {
        self.filled
    }
}

/// Incremental TLTR encoder over any [`Write`] sink.
///
/// The request count is part of the header, so it is declared at
/// construction; [`TraceWriter::finish`] fails if the pushed count differs.
/// Streamed traces are workload-only (no SD section), like every corpus
/// trace and transform output; [`Trace::to_bytes`](crate::Trace::to_bytes)
/// runs this writer too and appends the SD section a trace carries.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    hash: u64,
    tick_ns: u64,
    declared: u64,
    written: u64,
    prev_ticks: u64,
    window: PrefixRing,
    /// Pending bytes, hashed and written by `emit`; reused across pushes.
    buf: Vec<u8>,
    /// Bytes written to the sink so far (the trailer excluded).
    pub(crate) bytes: usize,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the TLTR header for a trace of exactly `request_count`
    /// requests and returns the writer.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is 0 or the name exceeds 255 bytes (the same
    /// contract as [`Trace::from_arrivals`](crate::Trace::from_arrivals)).
    pub fn new(sink: W, name: &str, tick_ns: u64, request_count: u64) -> Result<Self, TraceError> {
        TraceWriter::start(sink, name, tick_ns, request_count, false)
    }

    /// [`TraceWriter::new`] with the header's SD flag set when `sd` is true;
    /// such a writer is closed by [`TraceWriter::finish_with_sd`].
    pub(crate) fn start(
        sink: W,
        name: &str,
        tick_ns: u64,
        request_count: u64,
        sd: bool,
    ) -> Result<Self, TraceError> {
        assert!(tick_ns >= 1, "trace tick must be at least 1 ns");
        assert!(name.len() <= 255, "trace name must fit in 255 bytes");
        let mut writer = TraceWriter {
            sink,
            hash: FNV_OFFSET_BASIS,
            tick_ns,
            declared: request_count,
            written: 0,
            prev_ticks: 0,
            window: PrefixRing::new(),
            buf: Vec::with_capacity(16 + name.len()),
            bytes: 0,
        };
        writer.buf.extend_from_slice(&MAGIC);
        writer.buf.push(VERSION);
        writer.buf.push(if sd { FLAG_SD } else { 0 });
        writer.buf.push(name.len() as u8);
        writer.buf.extend_from_slice(name.as_bytes());
        put_varint(&mut writer.buf, tick_ns);
        put_varint(&mut writer.buf, request_count);
        writer.emit()?;
        Ok(writer)
    }

    /// Requests pushed so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Encodes one arrival. Ids are implicit (push order); times must be
    /// non-decreasing in ticks.
    pub fn push(&mut self, a: &RequestArrival) -> Result<(), TraceError> {
        if self.written == self.declared {
            return Err(TraceError::Malformed("more requests than declared"));
        }
        let ticks = a.time_ns / self.tick_ns;
        if ticks < self.prev_ticks {
            return Err(TraceError::Malformed(
                "streamed arrivals must be time-sorted",
            ));
        }
        put_varint(&mut self.buf, ticks - self.prev_ticks);
        self.prev_ticks = ticks;
        put_varint(&mut self.buf, a.prompt_len as u64);
        put_varint(&mut self.buf, a.output_len as u64);
        if a.prefix_id == 0 {
            put_varint(&mut self.buf, 0);
        } else {
            match self.window.find(a.prefix_id) {
                Some((distance, prev_len)) => {
                    put_varint(&mut self.buf, 1 + distance as u64);
                    put_varint(
                        &mut self.buf,
                        format::zigzag(a.prefix_len as i64 - prev_len as i64),
                    );
                }
                None => {
                    put_varint(&mut self.buf, 1);
                    put_varint(&mut self.buf, a.prefix_id);
                    put_varint(&mut self.buf, a.prefix_len as u64);
                }
            }
            self.window.push(a.prefix_id, a.prefix_len);
        }
        self.emit()?;
        self.written += 1;
        Ok(())
    }

    /// Writes the checksum trailer, flushes the sink and returns the
    /// checksum. Fails if fewer requests were pushed than declared.
    pub fn finish(self) -> Result<u64, TraceError> {
        self.finish_with_sd(None)
    }

    /// [`TraceWriter::finish`] after the SD section: a varint step count and
    /// then, per step, its accept length in unary (that many 1 bits and a 0),
    /// packed MSB-first. `accepts` is `Some` exactly when the writer was
    /// started with the SD flag.
    pub(crate) fn finish_with_sd(mut self, accepts: Option<&[u8]>) -> Result<u64, TraceError> {
        if self.written != self.declared {
            return Err(TraceError::Malformed("fewer requests than declared"));
        }
        if let Some(accepts) = accepts {
            put_varint(&mut self.buf, accepts.len() as u64);
            let (mut current, mut used) = (0u8, 0u8);
            for &a in accepts {
                for one in (0..=a.clamp(1, MAX_SD_ACCEPT)).rev() {
                    current = (current << 1) | u8::from(one > 0);
                    used += 1;
                    if used == 8 {
                        self.buf.push(current);
                        (current, used) = (0, 0);
                    }
                }
            }
            if used > 0 {
                self.buf.push(current << (8 - used));
            }
            self.emit()?;
        }
        let checksum = self.hash;
        self.sink
            .write_all(&checksum.to_le_bytes())
            .map_err(io_err)?;
        self.sink.flush().map_err(io_err)?;
        Ok(checksum)
    }

    /// Hashes and writes the pending bytes.
    fn emit(&mut self) -> Result<(), TraceError> {
        self.hash = fnv1a_64_update(self.hash, &self.buf);
        self.bytes += self.buf.len();
        let written = self.sink.write_all(&self.buf);
        self.buf.clear();
        written.map_err(io_err)
    }
}

/// Incremental TLTR decoder over any [`Read`] source through a fixed-size
/// chunk buffer (see the module docs for the memory and validation
/// guarantees).
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    /// Fixed-capacity chunk buffer; never grows after construction.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    source_eof: bool,
    /// Running FNV over every consumed payload byte (trailer excluded).
    hash: u64,
    name: String,
    tick_ns: u64,
    count: u64,
    has_sd: bool,
    /// `Some` collects the SD runs the tail validates (set by
    /// [`Trace::from_bytes`](crate::Trace::from_bytes)); the streamed path
    /// keeps `None` and allocates nothing.
    pub(crate) kept_sd: Option<Vec<u8>>,
    emitted: u64,
    ticks: u64,
    window: PrefixRing,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses the TLTR header from `source` with the default chunk buffer.
    pub fn open(source: R) -> Result<Self, TraceError> {
        TraceReader::open_with_capacity(source, DEFAULT_CHUNK_BYTES)
    }

    /// Like [`TraceReader::open`] with an explicit chunk-buffer capacity
    /// (clamped to a small minimum). Tiny capacities force records and
    /// back-references to straddle refills — the equivalence proptests use
    /// this to stress the chunk boundaries.
    pub fn open_with_capacity(source: R, capacity: usize) -> Result<Self, TraceError> {
        let mut reader = TraceReader {
            source,
            buf: vec![0u8; capacity.max(MIN_CHUNK_BYTES)],
            start: 0,
            end: 0,
            source_eof: false,
            hash: FNV_OFFSET_BASIS,
            name: String::new(),
            tick_ns: 0,
            count: 0,
            has_sd: false,
            kept_sd: None,
            emitted: 0,
            ticks: 0,
            window: PrefixRing::new(),
            finished: false,
        };
        reader.read_header()?;
        Ok(reader)
    }

    /// Opens `path` for streamed decoding (the reader's chunk buffer does its
    /// own batching, so the file needs no extra buffering layer).
    pub fn open_file(path: &str) -> Result<TraceReader<std::fs::File>, TraceError> {
        let file = std::fs::File::open(path).map_err(io_err)?;
        TraceReader::open(file)
    }

    /// The workload name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time quantum of the trace in nanoseconds.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Requests the header declares.
    pub fn request_count(&self) -> u64 {
        self.count
    }

    /// Whether the trace carries an SD accept-stream section (validated and
    /// skipped at the end of the stream; streamed replay is workload-only).
    pub fn has_sd(&self) -> bool {
        self.has_sd
    }

    /// Requests decoded so far.
    pub fn decoded(&self) -> u64 {
        self.emitted
    }

    /// Decodes the next arrival. After the last one, the SD section (if any)
    /// and the checksum trailer are consumed and validated, so `Ok(None)`
    /// means the whole stream verified clean; every subsequent call returns
    /// `Ok(None)` again.
    pub fn next_arrival(&mut self) -> Result<Option<RequestArrival>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        if self.emitted == self.count {
            self.finish_tail()?;
            self.finished = true;
            return Ok(None);
        }
        let delta = self.get_varint()?;
        self.ticks = self
            .ticks
            .checked_add(delta)
            .ok_or(TraceError::Malformed("arrival tick overflows"))?;
        let time_ns = self
            .ticks
            .checked_mul(self.tick_ns)
            .ok_or(TraceError::Malformed("arrival time overflows"))?;
        let prompt_len = self.get_varint()? as usize;
        let output_len = self.get_varint()? as usize;
        let tag = self.get_varint()?;
        let (prefix_id, prefix_len) = match tag {
            0 => (0, 0),
            1 => {
                let prefix_id = self.get_varint()?;
                if prefix_id == 0 {
                    return Err(TraceError::Malformed("new prefix group with id 0"));
                }
                let prefix_len = self.get_varint()? as usize;
                (prefix_id, prefix_len)
            }
            back => {
                let distance = (back - 1) as usize;
                if distance > PREFIX_WINDOW {
                    // The writer never refers beyond its search window, so
                    // this only fires on hand-crafted traces.
                    return Err(TraceError::Malformed(
                        "prefix back-reference beyond PREFIX_WINDOW",
                    ));
                }
                if distance > self.window.retained() {
                    return Err(TraceError::Malformed("prefix back-reference out of range"));
                }
                let (prefix_id, prev_len) = self.window.get(distance).expect("checked");
                let delta = format::unzigzag(self.get_varint()?);
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
            self.window.push(prefix_id, prefix_len);
        }
        let arrival = RequestArrival {
            id: self.emitted,
            time_ns,
            prompt_len,
            output_len,
            prefix_id,
            prefix_len,
        };
        self.emitted += 1;
        Ok(Some(arrival))
    }

    fn read_header(&mut self) -> Result<(), TraceError> {
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = self.take_u8()?;
        }
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = self.take_u8()?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let flags = self.take_u8()?;
        if flags & !FLAG_SD != 0 {
            return Err(TraceError::Malformed("unknown flag bits set"));
        }
        self.has_sd = flags & FLAG_SD != 0;
        let name_len = self.take_u8()? as usize;
        let mut name_bytes = [0u8; 255];
        for b in name_bytes.iter_mut().take(name_len) {
            *b = self.take_u8()?;
        }
        self.name = std::str::from_utf8(&name_bytes[..name_len])
            .map_err(|_| TraceError::Malformed("trace name is not UTF-8"))?
            .to_string();
        self.tick_ns = self.get_varint()?;
        if self.tick_ns == 0 {
            return Err(TraceError::Malformed("tick must be non-zero"));
        }
        self.count = self.get_varint()?;
        Ok(())
    }

    /// Consumes and validates the SD section (if any), keeping its runs in
    /// `kept_sd` when that is `Some`, and the checksum trailer; anything
    /// after the trailer is an error.
    fn finish_tail(&mut self) -> Result<(), TraceError> {
        if self.has_sd {
            let steps = self.get_varint()?;
            if let Some(kept) = &mut self.kept_sd {
                kept.reserve(steps.min(MAX_PREALLOC as u64) as usize);
            }
            let mut current = 0u8;
            let mut bit = 8u8;
            for _ in 0..steps {
                let mut run = 0u64;
                loop {
                    if bit == 8 {
                        current = self.take_u8()?;
                        bit = 0;
                    }
                    let one = (current >> (7 - bit)) & 1 == 1;
                    bit += 1;
                    if !one {
                        break;
                    }
                    run += 1;
                    if run > u64::from(MAX_SD_ACCEPT) {
                        return Err(TraceError::Malformed("SD accept run exceeds the cap"));
                    }
                }
                if run == 0 {
                    return Err(TraceError::Malformed("SD step with zero accepted tokens"));
                }
                if let Some(kept) = &mut self.kept_sd {
                    kept.push(run as u8);
                }
            }
        }
        let expected = self.hash;
        self.ensure(8)?;
        let actual = u64::from_le_bytes(
            self.buf[self.start..self.start + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.start += 8; // the trailer is not part of its own hash
        if !self.at_eof()? {
            return Err(TraceError::Malformed("trailing bytes after checksum"));
        }
        if expected != actual {
            return Err(TraceError::Corrupt { expected, actual });
        }
        Ok(())
    }

    /// Makes `n` contiguous unconsumed bytes available at `self.start`,
    /// shifting the tail to the buffer front and refilling from the source.
    /// Never allocates: the chunk buffer's capacity is fixed at open.
    fn ensure(&mut self, n: usize) -> Result<(), TraceError> {
        debug_assert!(n <= self.buf.len(), "record field exceeds chunk capacity");
        while self.end - self.start < n {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.source_eof {
                return Err(TraceError::Truncated);
            }
            let read = self
                .source
                .read(&mut self.buf[self.end..])
                .map_err(io_err)?;
            if read == 0 {
                self.source_eof = true;
            }
            self.end += read;
        }
        Ok(())
    }

    /// Whether the source is exhausted (refills once if the buffer is empty).
    fn at_eof(&mut self) -> Result<bool, TraceError> {
        if self.start < self.end {
            return Ok(false);
        }
        if self.source_eof {
            return Ok(true);
        }
        self.start = 0;
        self.end = self.source.read(&mut self.buf).map_err(io_err)?;
        if self.end == 0 {
            self.source_eof = true;
        }
        Ok(self.end == 0)
    }

    fn take_u8(&mut self) -> Result<u8, TraceError> {
        self.ensure(1)?;
        let b = self.buf[self.start];
        self.start += 1;
        self.hash = fnv1a_64_update(self.hash, &[b]);
        Ok(b)
    }

    fn get_varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        for shift in 0..10 {
            let byte = self.take_u8()?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Trace;
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    fn sample(prefix: bool) -> Trace {
        let mut config = ArrivalConfig::constant(20.0, 30.0, 42);
        if prefix {
            config = config.with_prefix(0.6, 128);
        }
        Trace::from_arrivals("sample", 1_000, &generate_arrivals(&config))
    }

    fn read_all(bytes: &[u8], capacity: usize) -> Result<Vec<RequestArrival>, TraceError> {
        let mut reader = TraceReader::open_with_capacity(bytes, capacity)?;
        let mut out = Vec::new();
        while let Some(a) = reader.next_arrival()? {
            out.push(a);
        }
        Ok(out)
    }

    /// The committed chat corpus file, decoded and re-encoded by the codec,
    /// comes back to its exact bytes.
    #[test]
    fn writer_matches_in_memory_encoder_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/chat.tltr");
        let file = std::fs::read(path).unwrap();
        let reader = TraceReader::open(&file[..]).unwrap();
        let (name, tick_ns, count) = (
            reader.name().to_string(),
            reader.tick_ns(),
            reader.request_count(),
        );
        let arrivals = read_all(&file, DEFAULT_CHUNK_BYTES).unwrap();
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, &name, tick_ns, count).unwrap();
        for a in &arrivals {
            writer.push(a).unwrap();
        }
        let checksum = writer.finish().unwrap();
        assert_eq!(out, file);
        let stored = u64::from_le_bytes(out[out.len() - 8..].try_into().unwrap());
        assert_eq!(checksum, stored);
    }

    /// The reader returns the canonical input of `Trace::from_arrivals`
    /// (ids in order, times cut to the tick) and, kept, the SD runs.
    #[test]
    fn reader_matches_in_memory_decoder_at_any_chunk_size() {
        let arrivals =
            generate_arrivals(&ArrivalConfig::constant(20.0, 30.0, 42).with_prefix(0.6, 128));
        let canonical: Vec<RequestArrival> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| RequestArrival {
                id: i as u64,
                time_ns: a.time_ns - a.time_ns % 1_000,
                ..*a
            })
            .collect();
        let sd = vec![2, 63, 1, 4];
        let mut trace = Trace::from_arrivals("sample", 1_000, &arrivals);
        trace.set_sd_accepts(sd.clone());
        let bytes = trace.to_bytes();
        for capacity in [0, 16, 17, 61, 4096] {
            let mut reader = TraceReader::open_with_capacity(&bytes[..], capacity).unwrap();
            assert_eq!(reader.name(), "sample");
            assert_eq!(reader.tick_ns(), 1_000);
            assert_eq!(reader.request_count() as usize, canonical.len());
            assert!(reader.has_sd());
            reader.kept_sd = Some(Vec::new());
            let mut out = Vec::new();
            while let Some(a) = reader.next_arrival().unwrap() {
                out.push(a);
            }
            assert_eq!(out, canonical, "capacity {capacity}");
            assert_eq!(reader.kept_sd.as_ref(), Some(&sd), "capacity {capacity}");
            assert_eq!(reader.decoded() as usize, out.len());
            // Idempotent at the end.
            assert_eq!(reader.next_arrival().unwrap(), None);
        }
    }

    #[test]
    fn writer_enforces_the_declared_count_and_time_order() {
        let trace = sample(false);
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, "t", 1_000, 1).unwrap();
        writer.push(&trace.arrivals()[0]).unwrap();
        assert_eq!(
            writer.push(&trace.arrivals()[1]),
            Err(TraceError::Malformed("more requests than declared"))
        );

        let mut out = Vec::new();
        let writer = TraceWriter::new(&mut out, "t", 1_000, 5).unwrap();
        assert_eq!(
            writer.finish(),
            Err(TraceError::Malformed("fewer requests than declared"))
        );

        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, "t", 1_000, 2).unwrap();
        writer.push(&trace.arrivals()[5]).unwrap();
        assert_eq!(
            writer.push(&trace.arrivals()[0]),
            Err(TraceError::Malformed(
                "streamed arrivals must be time-sorted"
            ))
        );
    }

    #[test]
    fn streamed_errors_mirror_the_in_memory_decoder() {
        let bytes = sample(true).to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(read_all(&bad, 64), Err(TraceError::BadMagic));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(read_all(&bad, 64), Err(TraceError::UnsupportedVersion(9)));
        // Truncations.
        for cut in [2, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = read_all(&bytes[..cut], 64).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::Corrupt { .. }),
                "cut {cut}: {err:?}"
            );
        }
        // Checksum flip.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            read_all(&bad, 64),
            Err(TraceError::Corrupt { .. })
        ));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            read_all(&bad, 64),
            Err(TraceError::Malformed("trailing bytes after checksum"))
        );
        // A prefix back-reference whose length delta overflows.
        let bad = crate::format::tests::back_reference_bytes(i64::MAX);
        assert_eq!(
            read_all(&bad, 64),
            Err(TraceError::Malformed("prefix length overflows"))
        );
        let good = crate::format::tests::back_reference_bytes(2);
        assert_eq!(read_all(&good, 64).unwrap()[1].prefix_len, 3);
    }

    #[test]
    fn empty_trace_streams_round_trip() {
        let trace = Trace::from_arrivals("empty", 1, &[]);
        let bytes = trace.to_bytes();
        assert_eq!(read_all(&bytes, 16).unwrap(), Vec::new());
        let mut out = Vec::new();
        TraceWriter::new(&mut out, "empty", 1, 0)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(out, bytes);
    }

    #[test]
    fn prefix_ring_matches_the_unbounded_window_semantics() {
        let mut ring = PrefixRing::new();
        assert_eq!(ring.find(1), None);
        for i in 1..=(PREFIX_WINDOW as u64 + 5) {
            ring.push(i, i as usize * 10);
        }
        // Most recent entry is at distance 1.
        assert_eq!(
            ring.get(1),
            Some((PREFIX_WINDOW as u64 + 5, (PREFIX_WINDOW + 5) * 10))
        );
        // The oldest retained entry is exactly PREFIX_WINDOW back.
        assert_eq!(ring.get(PREFIX_WINDOW), Some((6, 60)));
        assert_eq!(ring.get(PREFIX_WINDOW + 1), None);
        // Ids 1..=5 fell out of the window.
        assert_eq!(ring.find(5), None);
        assert_eq!(ring.find(6), Some((PREFIX_WINDOW, 60)));
    }
}

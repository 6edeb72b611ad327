//! Length-prefixed message frames over byte streams (pipes, sockets).
//!
//! The fleet driver (`snip-fleetd`) talks to its workers over plain
//! stdin/stdout pipes or TCP sockets. Two frame encodings share the
//! stream, distinguished per frame by the first byte:
//!
//! ```text
//! legacy (protocol ≤ 3):  <decimal payload byte length> '\n' <payload JSON> '\n'
//! binary (protocol ≥ 4):  0xC5 <payload byte length, u32 big-endian> <payload CBOR>
//! ```
//!
//! The binary format reuses the journal's [`serde::cbor`] codec — the
//! same canonical RFC 8949 subset the CBOR journals speak, so anything
//! that can live in a journal can cross a pipe or a socket bit-for-bit.
//! The magic byte `0xC5` can never open a legacy frame (length prefixes
//! are ASCII digits), so [`FrameReader::recv_value`] auto-detects the
//! encoding frame by frame: a v4 coordinator can answer a legacy JSON
//! frame on the same stream it speaks binary on, which is what keeps
//! version-skew rejections decodable by older peers.
//!
//! Both sides stream one frame at a time with O(frame) memory; the writer
//! flushes after every frame (transports are request/response, not bulk
//! logs). Reads are partial-read safe — a frame split across arbitrarily
//! small TCP segments reassembles byte-for-byte — and deadline-aware: a
//! stream with a read timeout surfaces an expired deadline as the
//! distinct [`FrameError::TimedOut`], never as a half-consumed frame
//! misread. Untrusted peers (a socket before authentication) can be held
//! to a smaller frame-size budget through a shared, relaxable limit
//! ([`FrameReader::with_frame_limit`]) — the budget applies to both
//! encodings and is checked before any payload allocation.
//!
//! ```
//! use serde::Value;
//! use snip_replay::frame::{FrameReader, FrameWriter};
//!
//! let mut buf = Vec::new();
//! FrameWriter::new(&mut buf).send_value(&Value::U64(7)).unwrap();
//! let mut reader = FrameReader::new(std::io::Cursor::new(buf));
//! assert_eq!(reader.recv_value().unwrap(), Some(Value::U64(7)));
//! assert_eq!(reader.recv_value().unwrap(), None);
//! ```

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{cbor, json, Deserialize, Serialize, Value};
use snip_obs::metrics::{Counter, Histogram};

/// Pre-resolved registry handles for one direction of one transport, so
/// the per-frame cost is a few relaxed atomic ops (the registry mutex is
/// hit once, at wiring time). Byte counts include the length prefix and
/// the newline terminator — the actual wire footprint.
struct FrameMetrics {
    /// `json` encode or decode time per frame.
    codec_us: &'static Histogram,
    /// Total framed bytes moved.
    bytes: &'static Counter,
    /// Total frames moved.
    frames: &'static Counter,
}

impl FrameMetrics {
    fn new(direction: &str, transport: &str) -> FrameMetrics {
        let codec = if direction == "tx" {
            "encode"
        } else {
            "decode"
        };
        FrameMetrics {
            codec_us: snip_obs::metrics::histogram(&format!(
                "snip_frame_{codec}_us{{transport=\"{transport}\"}}"
            )),
            bytes: snip_obs::metrics::counter(&format!(
                "snip_frame_{direction}_bytes_total{{transport=\"{transport}\"}}"
            )),
            frames: snip_obs::metrics::counter(&format!(
                "snip_frame_{direction}_frames_total{{transport=\"{transport}\"}}"
            )),
        }
    }
}

/// Frames larger than this are refused — a corrupt length prefix must not
/// turn into a multi-gigabyte allocation. Generous for real traffic: the
/// largest fleetd frame is a shard of `RunMetrics`, a few hundred KiB.
pub const MAX_FRAME_BYTES: u64 = 256 * 1024 * 1024;

/// First byte of a binary (CBOR) frame. Never the first byte of a legacy
/// frame — those open with an ASCII decimal digit — so a reader can
/// dispatch on it without consuming anything.
pub const BINARY_FRAME_MAGIC: u8 = 0xC5;

/// Bytes of binary-frame header: the magic byte plus a u32 big-endian
/// payload length.
pub const BINARY_HEADER_BYTES: usize = 5;

/// Encodes one complete binary frame (header + canonical CBOR payload)
/// into a fresh buffer. This is the pre-encode path: the coordinator
/// frames `Init` once per run and every transport ships the same bytes.
#[must_use]
pub fn encode_binary_frame(value: &Value) -> Vec<u8> {
    let mut frame = Vec::with_capacity(BINARY_HEADER_BYTES + 128);
    frame.extend_from_slice(&[BINARY_FRAME_MAGIC, 0, 0, 0, 0]);
    cbor::write_value(&mut frame, value).expect("Vec<u8> writes are infallible");
    let len = u32::try_from(frame.len() - BINARY_HEADER_BYTES)
        .expect("frame payloads are bounded far below 4 GiB");
    frame[1..BINARY_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
    frame
}

/// A framing, I/O or codec error.
#[derive(Debug)]
pub enum FrameError {
    /// An I/O failure on the underlying stream.
    Io(io::Error),
    /// A malformed frame: bad length prefix, bad JSON, missing terminator,
    /// or a payload that does not decode to the expected message shape.
    Codec(String),
    /// The stream ended inside a frame.
    Truncated,
    /// A read deadline expired (the stream has a read timeout and no
    /// complete frame arrived in time). Distinct from [`FrameError::Io`]
    /// so callers can tell a slow peer from a broken one.
    TimedOut,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Codec(msg) => write!(f, "frame codec error: {msg}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::TimedOut => write!(f, "read deadline expired inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            // A stream with a read timeout reports an expired deadline as
            // WouldBlock (unix) or TimedOut (windows).
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e),
        }
    }
}

impl From<serde::Error> for FrameError {
    fn from(e: serde::Error) -> Self {
        FrameError::Codec(e.to_string())
    }
}

/// Writes length-prefixed frames, flushing after each one. The encoding
/// is chosen at construction: [`FrameWriter::new`] writes legacy JSON
/// frames, [`FrameWriter::new_binary`] writes binary CBOR frames.
pub struct FrameWriter<W: Write> {
    out: W,
    frames: u64,
    binary: bool,
    /// Reused per-frame encode buffer — hot-loop sends stop allocating.
    scratch: Vec<u8>,
    metrics: Option<FrameMetrics>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a writer emitting legacy JSON frames.
    pub fn new(out: W) -> Self {
        FrameWriter {
            out,
            frames: 0,
            binary: false,
            scratch: Vec::new(),
            metrics: None,
        }
    }

    /// Wraps a writer emitting binary CBOR frames (protocol v4 wire).
    pub fn new_binary(out: W) -> Self {
        FrameWriter {
            out,
            frames: 0,
            binary: true,
            scratch: Vec::new(),
            metrics: None,
        }
    }

    /// Records per-frame encode time, byte, and frame counts under the
    /// given transport label (e.g. `"pipe"`, `"tcp"`) in the process
    /// metrics registry.
    #[must_use]
    pub fn with_metrics(mut self, transport: &str) -> Self {
        self.metrics = Some(FrameMetrics::new("tx", transport));
        self
    }

    /// Frames written so far.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Sends one pre-encoded value.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send_value(&mut self, value: &Value) -> Result<(), FrameError> {
        if self.binary {
            return self.send_value_binary(value);
        }
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let encode_start = self.metrics.as_ref().map(|_| Instant::now());
        let payload = json::to_string(value);
        let bytes = payload.as_bytes();
        if let (Some(m), Some(t0)) = (&self.metrics, encode_start) {
            m.codec_us.observe(t0.elapsed());
        }
        let prefix = format!("{}\n", bytes.len());
        self.out.write_all(prefix.as_bytes())?;
        self.out.write_all(bytes)?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.frames += 1;
        if let Some(m) = &self.metrics {
            m.bytes.add((prefix.len() + bytes.len() + 1) as u64);
            m.frames.inc();
        }
        Ok(())
    }

    fn send_value_binary(&mut self, value: &Value) -> Result<(), FrameError> {
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let encode_start = self.metrics.as_ref().map(|_| Instant::now());
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&[BINARY_FRAME_MAGIC, 0, 0, 0, 0]);
        cbor::write_value(&mut self.scratch, value).expect("Vec<u8> writes are infallible");
        let len = u32::try_from(self.scratch.len() - BINARY_HEADER_BYTES)
            .expect("frame payloads are bounded far below 4 GiB");
        self.scratch[1..BINARY_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
        if let (Some(m), Some(t0)) = (&self.metrics, encode_start) {
            m.codec_us.observe(t0.elapsed());
        }
        self.out.write_all(&self.scratch)?;
        self.out.flush()?;
        self.frames += 1;
        if let Some(m) = &self.metrics {
            m.bytes.add(self.scratch.len() as u64);
            m.frames.inc();
        }
        Ok(())
    }

    /// Sends one pre-framed byte run (header and payload already encoded
    /// by [`encode_binary_frame`]) without re-serializing. This is the
    /// zero-copy shard path: pre-encoded frames are shared across peers
    /// as `Arc<[u8]>` and hit the wire as a single write.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        self.out.write_all(frame)?;
        self.out.flush()?;
        self.frames += 1;
        if let Some(m) = &self.metrics {
            m.bytes.add(frame.len() as u64);
            m.frames.inc();
        }
        Ok(())
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send<T: Serialize>(&mut self, msg: &T) -> Result<(), FrameError> {
        self.send_value(&msg.to_value())
    }
}

/// Reads length-prefixed JSON frames.
pub struct FrameReader<R: BufRead> {
    input: R,
    frames: u64,
    /// Per-frame size budget, shared so the owner of the stream can relax
    /// it while a reader thread holds the reader (e.g. raise an untrusted
    /// peer's budget once it authenticates).
    limit: Arc<AtomicU64>,
    metrics: Option<FrameMetrics>,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a reader with the default [`MAX_FRAME_BYTES`] budget.
    pub fn new(input: R) -> Self {
        Self::with_frame_limit(input, Arc::new(AtomicU64::new(MAX_FRAME_BYTES)))
    }

    /// Wraps a reader with a shared per-frame size budget. Frames whose
    /// length prefix exceeds the budget's current value are refused before
    /// any allocation; the budget can be raised (or lowered) at any time
    /// through the shared handle.
    pub fn with_frame_limit(input: R, limit: Arc<AtomicU64>) -> Self {
        FrameReader {
            input,
            frames: 0,
            limit,
            metrics: None,
        }
    }

    /// Records per-frame decode time, byte, and frame counts under the
    /// given transport label (e.g. `"pipe"`, `"tcp"`) in the process
    /// metrics registry.
    #[must_use]
    pub fn with_metrics(mut self, transport: &str) -> Self {
        self.metrics = Some(FrameMetrics::new("rx", transport));
        self
    }

    /// Frames read so far.
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// Reads the next frame's value; `Ok(None)` on a clean end of stream
    /// (EOF exactly at a frame boundary). The encoding is detected per
    /// frame from the first byte: [`BINARY_FRAME_MAGIC`] opens a binary
    /// CBOR frame, anything else takes the legacy JSON path (where a
    /// non-digit is a length-prefix error).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on I/O failure, a malformed frame, or a
    /// stream that ends mid-frame.
    pub fn recv_value(&mut self) -> Result<Option<Value>, FrameError> {
        let first = match self.input.fill_buf()?.first() {
            None => return Ok(None), // clean EOF between frames
            Some(&b) => b,
        };
        if first == BINARY_FRAME_MAGIC {
            return self.recv_binary_value().map(Some);
        }
        let mut prefix = String::new();
        if self.input.read_line(&mut prefix)? == 0 {
            return Ok(None); // clean EOF between frames
        }
        let trimmed = prefix.trim();
        let len: u64 = trimmed
            .parse()
            .map_err(|_| FrameError::Codec(format!("bad frame length prefix `{trimmed}`")))?;
        let limit = self.limit.load(Ordering::Relaxed);
        if len > limit {
            return Err(FrameError::Codec(format!(
                "frame of {len} bytes exceeds the {limit}-byte limit"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.input
            .read_exact(&mut payload)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => FrameError::Truncated,
                _ => FrameError::from(e),
            })?;
        let mut terminator = [0u8; 1];
        match self.input.read_exact(&mut terminator) {
            Ok(()) if terminator == *b"\n" => {}
            Ok(_) => {
                return Err(FrameError::Codec(
                    "frame payload not followed by a newline terminator".into(),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(FrameError::Truncated)
            }
            Err(e) => return Err(FrameError::from(e)),
        }
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let decode_start = self.metrics.as_ref().map(|_| Instant::now());
        let text = std::str::from_utf8(&payload)
            .map_err(|_| FrameError::Codec("frame payload is not UTF-8".into()))?;
        let value = json::from_str(text)?;
        self.frames += 1;
        if let (Some(m), Some(t0)) = (&self.metrics, decode_start) {
            m.codec_us.observe(t0.elapsed());
            m.bytes.add(prefix.len() as u64 + len + 1);
            m.frames.inc();
        }
        Ok(Some(value))
    }

    /// Reads one binary frame whose magic byte is already known to be
    /// next on the stream. The length is checked against the shared
    /// budget before the payload is allocated.
    fn recv_binary_value(&mut self) -> Result<Value, FrameError> {
        let mut header = [0u8; BINARY_HEADER_BYTES];
        self.input
            .read_exact(&mut header)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => FrameError::Truncated,
                _ => FrameError::from(e),
            })?;
        let len = u64::from(u32::from_be_bytes([
            header[1], header[2], header[3], header[4],
        ]));
        let limit = self.limit.load(Ordering::Relaxed);
        if len > limit {
            return Err(FrameError::Codec(format!(
                "frame of {len} bytes exceeds the {limit}-byte limit"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.input
            .read_exact(&mut payload)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => FrameError::Truncated,
                _ => FrameError::from(e),
            })?;
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let decode_start = self.metrics.as_ref().map(|_| Instant::now());
        let value = cbor::from_slice(&payload)?;
        self.frames += 1;
        if let (Some(m), Some(t0)) = (&self.metrics, decode_start) {
            m.codec_us.observe(t0.elapsed());
            m.bytes.add(BINARY_HEADER_BYTES as u64 + len);
            m.frames.inc();
        }
        Ok(value)
    }

    /// Reads and decodes the next frame; `Ok(None)` on a clean end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] as [`FrameReader::recv_value`], plus
    /// [`FrameError::Codec`] when the payload does not decode as `T`.
    pub fn recv<T: Deserialize>(&mut self) -> Result<Option<T>, FrameError> {
        match self.recv_value()? {
            None => Ok(None),
            Some(v) => Ok(Some(T::from_value(&v)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let values = [
            Value::U64(1),
            Value::Str("two\nlines".into()),
            Value::Seq(vec![Value::F64(86.4), Value::Bool(true)]),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
            assert_eq!(w.frames_written(), 3);
        }
        let mut r = FrameReader::new(Cursor::new(buf));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(r.frames_read(), 3);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .send_value(&Value::Str("payload".into()))
            .unwrap();
        buf.truncate(buf.len() - 4);
        let mut r = FrameReader::new(Cursor::new(buf));
        assert!(matches!(r.recv_value(), Err(FrameError::Truncated)));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .send_value(&Value::U64(9))
            .unwrap();
        let last = buf.len() - 1;
        buf[last] = b'x';
        let mut r = FrameReader::new(Cursor::new(buf));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
    }

    #[test]
    fn bad_length_prefix_is_an_error() {
        let mut r = FrameReader::new(Cursor::new(b"not-a-number\n{}\n".to_vec()));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
        let mut r = FrameReader::new(Cursor::new(b"99999999999999999999\n".to_vec()));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = FrameReader::new(Cursor::new(huge.into_bytes()));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
    }

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case TCP segmentation.
    struct OneByte<R: io::Read>(R);

    impl<R: io::Read> io::Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn frames_reassemble_from_single_byte_reads() {
        let values = [
            Value::Str("split across many tiny reads".into()),
            Value::Seq((0..50).map(Value::U64).collect()),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
        }
        // Capacity 1 forces the BufRead layer itself to refill per byte.
        let mut r = FrameReader::new(io::BufReader::with_capacity(1, OneByte(Cursor::new(buf))));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
    }

    /// A reader that yields a prefix, then reports an expired read
    /// deadline — what a socket with a read timeout does mid-frame.
    struct TimesOutAfter {
        data: Cursor<Vec<u8>>,
    }

    impl io::Read for TimesOutAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.data.read(buf) {
                Ok(0) => Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out")),
                other => other,
            }
        }
    }

    #[test]
    fn expired_read_deadline_is_timed_out_not_truncated() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .send_value(&Value::Str("deadline".into()))
            .unwrap();
        buf.truncate(buf.len() - 4); // deadline expires mid-payload
        let mut r = FrameReader::new(io::BufReader::new(TimesOutAfter {
            data: Cursor::new(buf),
        }));
        assert!(matches!(r.recv_value(), Err(FrameError::TimedOut)));
    }

    #[test]
    fn shared_frame_limit_is_enforced_and_relaxable() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            w.send_value(&Value::Str("x".repeat(100))).unwrap();
            w.send_value(&Value::Str("small".into())).unwrap();
        }
        // Tight budget refuses the large frame before allocating it...
        let limit = Arc::new(AtomicU64::new(10));
        let mut r = FrameReader::with_frame_limit(Cursor::new(buf.clone()), Arc::clone(&limit));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
        // ...and raising the shared handle admits it (fresh reader: the
        // refused stream position is sunk).
        limit.store(MAX_FRAME_BYTES, Ordering::Relaxed);
        let mut r = FrameReader::with_frame_limit(Cursor::new(buf), limit);
        assert!(r.recv_value().unwrap().is_some());
        assert!(r.recv_value().unwrap().is_some());
    }

    #[test]
    fn metrics_labeled_codecs_record_the_wire_footprint() {
        use snip_obs::metrics;
        // The registry is process-global, so measure deltas under a label
        // no other test uses.
        let tx_name = "snip_frame_tx_bytes_total{transport=\"frame-unit-test\"}";
        let rx_name = "snip_frame_rx_bytes_total{transport=\"frame-unit-test\"}";
        let tx_before = metrics::counter_value(tx_name);
        let rx_before = metrics::counter_value(rx_name);

        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf).with_metrics("frame-unit-test");
            w.send_value(&Value::Str("metered".into())).unwrap();
        }
        let wire = buf.len() as u64;
        assert_eq!(
            metrics::counter_value(tx_name) - tx_before,
            wire,
            "tx bytes must equal the framed wire footprint"
        );

        let mut r = FrameReader::new(Cursor::new(buf)).with_metrics("frame-unit-test");
        assert!(r.recv_value().unwrap().is_some());
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(
            metrics::counter_value(rx_name) - rx_before,
            wire,
            "rx bytes must equal the framed wire footprint"
        );
        let (count, _sum) = metrics::sum_histograms("snip_frame_encode_us");
        assert!(count >= 1, "encode timing histogram must record");
    }

    #[test]
    fn typed_round_trip() {
        use snip_sim::RunMetrics;
        let metrics = RunMetrics::with_epochs(2);
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).send(&metrics).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        let back: RunMetrics = r.recv().unwrap().expect("one frame");
        assert_eq!(back, metrics);
    }

    #[test]
    fn binary_frames_round_trip() {
        let values = [
            Value::U64(1),
            Value::Str("two\nlines".into()),
            Value::Seq(vec![Value::F64(86.4), Value::Bool(true)]),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new_binary(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
            assert_eq!(w.frames_written(), 3);
        }
        assert_eq!(buf[0], BINARY_FRAME_MAGIC);
        let mut r = FrameReader::new(Cursor::new(buf));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(r.frames_read(), 3);
    }

    #[test]
    fn mixed_encodings_share_one_stream() {
        // A v4 stream may carry a legacy JSON frame (the version-skew
        // rejection path) between binary frames; the reader dispatches
        // per frame on the first byte.
        let mut buf = Vec::new();
        FrameWriter::new_binary(&mut buf)
            .send_value(&Value::U64(4))
            .unwrap();
        FrameWriter::new(&mut buf)
            .send_value(&Value::Str("legacy".into()))
            .unwrap();
        FrameWriter::new_binary(&mut buf)
            .send_value(&Value::Bool(true))
            .unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        assert_eq!(r.recv_value().unwrap(), Some(Value::U64(4)));
        assert_eq!(r.recv_value().unwrap(), Some(Value::Str("legacy".into())));
        assert_eq!(r.recv_value().unwrap(), Some(Value::Bool(true)));
        assert!(r.recv_value().unwrap().is_none());
    }

    #[test]
    fn truncated_binary_frame_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new_binary(&mut buf)
            .send_value(&Value::Str("payload".into()))
            .unwrap();
        // Mid-payload cut...
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 4);
        let mut r = FrameReader::new(Cursor::new(cut));
        assert!(matches!(r.recv_value(), Err(FrameError::Truncated)));
        // ...and a mid-header cut.
        let mut cut = buf;
        cut.truncate(3);
        let mut r = FrameReader::new(Cursor::new(cut));
        assert!(matches!(r.recv_value(), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_binary_frame_is_refused_before_allocation() {
        let huge = vec![BINARY_FRAME_MAGIC, 0xFF, 0xFF, 0xFF, 0xFF];
        let limit = Arc::new(AtomicU64::new(1024));
        let mut r = FrameReader::with_frame_limit(Cursor::new(huge), limit);
        let err = r.recv_value().unwrap_err();
        assert!(
            matches!(&err, FrameError::Codec(msg) if msg.contains("exceeds")),
            "got {err:?}"
        );
    }

    #[test]
    fn binary_frames_reassemble_from_single_byte_reads() {
        let values = [
            Value::Str("split across many tiny reads".into()),
            Value::Seq((0..50).map(Value::U64).collect()),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new_binary(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
        }
        let mut r = FrameReader::new(io::BufReader::with_capacity(1, OneByte(Cursor::new(buf))));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
    }

    #[test]
    fn binary_metrics_record_the_wire_footprint() {
        use snip_obs::metrics;
        let tx_name = "snip_frame_tx_bytes_total{transport=\"frame-bin-unit-test\"}";
        let rx_name = "snip_frame_rx_bytes_total{transport=\"frame-bin-unit-test\"}";
        let tx_before = metrics::counter_value(tx_name);
        let rx_before = metrics::counter_value(rx_name);

        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new_binary(&mut buf).with_metrics("frame-bin-unit-test");
            w.send_value(&Value::Str("metered".into())).unwrap();
        }
        let wire = buf.len() as u64;
        assert_eq!(
            metrics::counter_value(tx_name) - tx_before,
            wire,
            "tx bytes must equal the framed wire footprint"
        );

        let mut r = FrameReader::new(Cursor::new(buf)).with_metrics("frame-bin-unit-test");
        assert!(r.recv_value().unwrap().is_some());
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(
            metrics::counter_value(rx_name) - rx_before,
            wire,
            "rx bytes must equal the framed wire footprint"
        );
    }

    #[test]
    fn pre_encoded_frames_match_the_writer_byte_for_byte() {
        let value = Value::Seq(vec![Value::U64(7), Value::Str("shared".into())]);
        let pre = encode_binary_frame(&value);
        let mut buf = Vec::new();
        FrameWriter::new_binary(&mut buf)
            .send_value(&value)
            .unwrap();
        assert_eq!(pre, buf, "pre-encoded and streaming encodes must agree");

        // send_raw ships the pre-encoded bytes verbatim and counts them.
        let mut raw = Vec::new();
        let mut w = FrameWriter::new(&mut raw);
        w.send_raw(&pre).unwrap();
        assert_eq!(w.frames_written(), 1);
        assert_eq!(raw, pre);
        let mut r = FrameReader::new(Cursor::new(raw));
        assert_eq!(r.recv_value().unwrap(), Some(value));
    }

    #[test]
    fn binary_typed_round_trip() {
        use snip_sim::RunMetrics;
        let metrics = RunMetrics::with_epochs(2);
        let mut buf = Vec::new();
        FrameWriter::new_binary(&mut buf).send(&metrics).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        let back: RunMetrics = r.recv().unwrap().expect("one frame");
        assert_eq!(back, metrics);
    }
}

//! Wire protocol: length-prefixed frames carrying a UTF-8 line grammar.
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many bytes of UTF-8 text. The prefix is bounded by
//! [`MAX_FRAME`] (1 MiB) and must be nonzero, which makes the framing
//! self-validating: a client that writes garbage almost always produces
//! an oversized prefix and is rejected with a structured error instead
//! of making the server buffer gigabytes. The bound also disambiguates
//! plain-HTTP probes — the first four bytes of `GET /metrics HTTP/1.1`
//! decode to the little-endian integer `0x2054_4547`, far above
//! [`MAX_FRAME`], so one listening port can serve both the frame
//! protocol and a `/metrics` scrape endpoint without a reserved byte.
//!
//! Payloads are single lines of space-separated tokens:
//!
//! ```text
//! PING
//! RECOGNIZE <metric> <start> <end> <mean0> [mean1 ...]
//! STREAM <metric> <nodes> <start> <end>
//! PUSH <node> <t> <value>
//! FINISH
//! LEARN <app> <input> <metric> <start> <end> <mean0> [mean1 ...]
//! SWAP [<path>]
//! STATS
//! SHUTDOWN
//! ```
//!
//! and responses mirror the shape (`<gen>` is the snapshot generation
//! the answer was computed against — the hot-swap tests pivot on it):
//!
//! ```text
//! PONG
//! OK <gen> <matched> <total> recognized <app> | ambiguous <a,b,..> | unknown
//! OPENED <gen> <horizon_s>
//! ACK <collected>
//! VERDICT <gen> <matched> <total> <same tail as OK>
//! LEARNED <keys>
//! SWAPPED <gen> <keys>
//! STATS gen=<g> keys=<k> backend=<name> requests=<n>
//! BYE
//! ERR <kind> <message>
//! ```
//!
//! Token grammar restriction: metric, application, and input names must
//! not contain whitespace (true of every catalog metric and of the
//! synthetic workload labels). Ambiguous verdict apps are joined with
//! `,` and therefore must not contain commas either.

use std::io::{self, Read, Write};

use efd_core::{Recognition, Verdict};

/// Hard ceiling on a frame payload (1 MiB). A `RECOGNIZE` for 4096
/// nodes is ~100 KB, so real traffic sits far below; anything above is
/// a protocol violation, not a big request.
pub const MAX_FRAME: u32 = 1 << 20;

/// Initial size of a [`FrameReader`]'s read buffer. It holds hundreds of
/// typical request frames, so one `read` picks up a whole pipelined
/// batch; it grows only for a single frame larger than itself.
const READ_BUF: usize = 8 * 1024;

/// Everything that can go wrong while reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The read timed out (`WouldBlock`/`TimedOut`). Reader state is
    /// preserved — call [`FrameReader::read_frame`] again to resume.
    Timeout,
    /// The peer closed the connection in the middle of a frame (after a
    /// partial length prefix or a partial payload).
    Torn,
    /// The length prefix exceeds [`MAX_FRAME`]; the value is carried
    /// for diagnostics.
    Oversized(u32),
    /// A zero-length frame; the grammar has no empty request.
    Empty,
    /// Any other I/O error (reset, broken pipe, ...).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Timeout => write!(f, "read timed out"),
            FrameError::Torn => write!(f, "connection closed mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// A buffered, resumable frame decoder for one connection.
///
/// One `read` fills the buffer with as many bytes as the peer has sent,
/// and every complete frame in it is then handed out without further
/// I/O — a pipelined batch costs one syscall, not two per frame.
/// `FrameReader::frame_ready` tells the server whether the next
/// [`FrameReader::read_frame`] could block, which is when queued replies
/// must be flushed.
///
/// Read timeouts are how the server implements idle accounting (each
/// connection thread reads with a short timeout and tallies quiet ticks), so the
/// decoder survives a timeout at *any* byte boundary — including inside
/// the 4-byte prefix — and continues exactly where it stopped: all
/// partial state is the buffered tail.
#[derive(Debug)]
pub struct FrameReader {
    /// Read buffer; `buf[start..end]` is received but not handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// What the buffered bytes hold at the next frame boundary.
enum Next {
    /// A complete frame with this payload length.
    Frame(usize),
    /// A bad length prefix, refused without reading its payload.
    Bad(FrameError),
    /// An incomplete frame needing `total` buffered bytes (prefix
    /// included) — 4 while the prefix itself is incomplete.
    Partial(usize),
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// A fresh decoder positioned at a frame boundary.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Bytes received but not yet handed out as frames (a partial frame,
    /// or the head of a connection that is not speaking frames at all).
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// True if the next [`FrameReader::read_frame`] returns without I/O:
    /// a complete frame, or a bad prefix it will refuse, is buffered.
    pub(crate) fn frame_ready(&self) -> bool {
        !matches!(self.next(), Next::Partial(_))
    }

    fn next(&self) -> Next {
        let Some(prefix) = self.buffered().first_chunk::<4>() else {
            return Next::Partial(4);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME {
            return Next::Bad(FrameError::Oversized(len));
        }
        if len == 0 {
            return Next::Bad(FrameError::Empty);
        }
        let total = 4 + len as usize;
        if self.end - self.start >= total {
            Next::Frame(len as usize)
        } else {
            Next::Partial(total)
        }
    }

    /// Return the next frame, reading only when none is buffered: one
    /// complete frame, EOF at a frame boundary, or an error.
    /// `Ok(Some(payload))` borrows this reader and is valid until the
    /// next call; `Ok(None)` is a clean close.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<&[u8]>, FrameError> {
        loop {
            let total = match self.next() {
                Next::Frame(len) => {
                    let at = self.start + 4;
                    self.start = at + len;
                    return Ok(Some(&self.buf[at..at + len]));
                }
                Next::Bad(e) => return Err(e),
                Next::Partial(total) => total,
            };
            // Move the partial tail to the front, then make room for the
            // whole frame (at most `MAX_FRAME` + 4 bytes).
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if total > self.buf.len() {
                self.buf.resize(total, 0);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Torn),
                Ok(n) => self.end += n,
                Err(e) => return Err(map_io(e)),
            }
        }
    }
}

fn map_io(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
        io::ErrorKind::Interrupted => FrameError::Timeout,
        _ => FrameError::Io(e),
    }
}

/// Write one frame: length prefix + payload, no flush (callers queue
/// frames behind a `BufWriter` and flush once per batch).
///
/// # Panics
///
/// Panics if `payload` is empty or exceeds [`MAX_FRAME`] — both are
/// caller bugs, not runtime conditions.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(!payload.is_empty(), "empty frame");
    assert!(payload.len() <= MAX_FRAME as usize, "oversized frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// The protocol command of a request, used for per-command metrics
/// labels. Declared separately from [`Request`] so counters can be
/// pre-registered for every command at daemon start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `PING`
    Ping,
    /// `RECOGNIZE`
    Recognize,
    /// `STREAM`
    Stream,
    /// `PUSH`
    Push,
    /// `FINISH`
    Finish,
    /// `LEARN`
    Learn,
    /// `SWAP`
    Swap,
    /// `STATS`
    Stats,
    /// `STATUS`
    Status,
    /// `SHUTDOWN`
    Shutdown,
}

/// Every command, in a fixed order (metric registration order).
pub const COMMANDS: [Command; 10] = [
    Command::Ping,
    Command::Recognize,
    Command::Stream,
    Command::Push,
    Command::Finish,
    Command::Learn,
    Command::Swap,
    Command::Stats,
    Command::Status,
    Command::Shutdown,
];

impl Command {
    /// Lowercase label value for `efd_requests_total{command=...}`.
    pub fn name(self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Recognize => "recognize",
            Command::Stream => "stream",
            Command::Push => "push",
            Command::Finish => "finish",
            Command::Learn => "learn",
            Command::Swap => "swap",
            Command::Stats => "stats",
            Command::Status => "status",
            Command::Shutdown => "shutdown",
        }
    }

    /// Index into [`COMMANDS`]-ordered metric arrays.
    pub fn index(self) -> usize {
        COMMANDS.iter().position(|c| *c == self).expect("in COMMANDS")
    }
}

/// A parsed request. Metric names stay as strings here — resolution
/// against the catalog happens in the server, where an unknown name
/// becomes a structured `ERR unknown-metric`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One-shot recognition of per-node window means.
    Recognize {
        /// Catalog metric name.
        metric: String,
        /// Window start (seconds).
        start: u32,
        /// Window end (seconds, exclusive).
        end: u32,
        /// One window mean per node.
        means: Vec<f64>,
    },
    /// Open this connection's streaming session.
    Stream {
        /// Catalog metric name.
        metric: String,
        /// Number of nodes streaming samples.
        nodes: u16,
        /// Fingerprint window start.
        start: u32,
        /// Fingerprint window end.
        end: u32,
    },
    /// Feed one raw 1 Hz sample into the open session.
    Push {
        /// Node index within the declared stream.
        node: u16,
        /// Sample timestamp (seconds since job start).
        t: u32,
        /// Sampled metric value.
        value: f64,
    },
    /// Force a verdict from the open session, flushing open windows.
    Finish,
    /// Write-ahead learn one labeled observation (durable mode only).
    Learn {
        /// Application name.
        app: String,
        /// Input-size label.
        input: String,
        /// Catalog metric name.
        metric: String,
        /// Window start.
        start: u32,
        /// Window end.
        end: u32,
        /// One window mean per node.
        means: Vec<f64>,
    },
    /// Republish the engine from a dictionary file (empty path = the
    /// daemon's `--load` path).
    Swap {
        /// Dictionary path, or empty for the configured reload path.
        path: String,
    },
    /// One-line daemon status.
    Stats,
    /// Catalog version + drift judgement status line.
    Status,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl Request {
    /// The command this request carries (metrics label).
    pub fn command(&self) -> Command {
        match self {
            Request::Ping => Command::Ping,
            Request::Recognize { .. } => Command::Recognize,
            Request::Stream { .. } => Command::Stream,
            Request::Push { .. } => Command::Push,
            Request::Finish => Command::Finish,
            Request::Learn { .. } => Command::Learn,
            Request::Swap { .. } => Command::Swap,
            Request::Stats => Command::Stats,
            Request::Status => Command::Status,
            Request::Shutdown => Command::Shutdown,
        }
    }

    /// Parse one request line. Errors are human-readable fragments for
    /// an `ERR malformed <why>` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut it = line.split_ascii_whitespace();
        let verb = it.next().ok_or("blank request")?;
        match verb {
            "PING" => end(it, Request::Ping),
            "RECOGNIZE" => {
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                let means = means(it)?;
                Ok(Request::Recognize {
                    metric,
                    start,
                    end,
                    means,
                })
            }
            "STREAM" => {
                let metric = word(&mut it, "metric")?;
                let nodes: u16 = num(&mut it, "nodes")?;
                if nodes == 0 {
                    return Err("STREAM needs at least one node".into());
                }
                let (start, e) = window(&mut it)?;
                end(
                    it,
                    Request::Stream {
                        metric,
                        nodes,
                        start,
                        end: e,
                    },
                )
            }
            "PUSH" => {
                let node: u16 = num(&mut it, "node")?;
                let t: u32 = num(&mut it, "t")?;
                let value: f64 = num(&mut it, "value")?;
                if !value.is_finite() {
                    return Err("PUSH value must be finite".into());
                }
                end(it, Request::Push { node, t, value })
            }
            "FINISH" => end(it, Request::Finish),
            "LEARN" => {
                let app = word(&mut it, "app")?;
                let input = word(&mut it, "input")?;
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                let means = means(it)?;
                Ok(Request::Learn {
                    app,
                    input,
                    metric,
                    start,
                    end,
                    means,
                })
            }
            "SWAP" => {
                let path = it.next().unwrap_or("").to_string();
                end(it, Request::Swap { path })
            }
            "STATS" => end(it, Request::Stats),
            "STATUS" => end(it, Request::Status),
            "SHUTDOWN" => end(it, Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

fn end<'a>(
    mut it: impl Iterator<Item = &'a str>,
    req: Request,
) -> Result<Request, String> {
    match it.next() {
        None => Ok(req),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    }
}

fn word<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<String, String> {
    it.next()
        .map(str::to_string)
        .ok_or_else(|| format!("missing {what}"))
}

fn num<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let tok = it.next().ok_or_else(|| format!("missing {what}"))?;
    tok.parse()
        .map_err(|_| format!("bad {what} {tok:?}"))
}

fn window<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<(u32, u32), String> {
    let start: u32 = num(it, "window start")?;
    let end: u32 = num(it, "window end")?;
    if end <= start {
        return Err(format!("bad window [{start}:{end}] (end must exceed start)"));
    }
    Ok((start, end))
}

fn means<'a>(it: impl Iterator<Item = &'a str>) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for tok in it {
        let v: f64 = tok.parse().map_err(|_| format!("bad mean {tok:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite mean {tok:?}"));
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err("need at least one mean".into());
    }
    if out.len() > u16::MAX as usize {
        return Err("too many node means".into());
    }
    Ok(out)
}

/// Render the verdict tail shared by `OK` and `VERDICT` responses. The
/// recognition is normalized first so the ambiguous array is in the
/// deterministic lexicographic order every backend agrees on.
pub fn verdict_tail(rec: &Recognition) -> String {
    match &rec.verdict {
        Verdict::Recognized(app) => format!("recognized {app}"),
        Verdict::Ambiguous(apps) => {
            let mut sorted = apps.clone();
            sorted.sort();
            format!("ambiguous {}", sorted.join(","))
        }
        // `Verdict` is non-exhaustive: future variants degrade to the
        // safeguard bucket rather than a protocol break.
        _ => "unknown".to_string(),
    }
}

/// Stable label value for per-verdict counters: `recognized`,
/// `ambiguous`, or `unknown`.
pub fn verdict_label(rec: &Recognition) -> &'static str {
    match &rec.verdict {
        Verdict::Recognized(_) => "recognized",
        Verdict::Ambiguous(_) => "ambiguous",
        _ => "unknown",
    }
}

/// Render a full `OK`/`VERDICT` response line.
pub fn render_answer(head: &str, gen: u64, rec: &Recognition) -> String {
    format!(
        "{head} {gen} {} {} {}",
        rec.matched_points,
        rec.total_points,
        verdict_tail(rec)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"PING").unwrap();
        write_frame(&mut buf, b"STATS").unwrap();
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(r.read_frame(&mut cur).unwrap(), Some(&b"PING"[..]));
        assert_eq!(r.read_frame(&mut cur).unwrap(), Some(&b"STATS"[..]));
        assert_eq!(r.read_frame(&mut cur).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_prefix_and_payload_are_distinguished_from_clean_eof() {
        // 2 of 4 prefix bytes, then EOF.
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(vec![4u8, 0]);
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Torn)));
        // Full prefix promising 4 bytes, only 2 delivered.
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(vec![4u8, 0, 0, 0, b'P', b'I']);
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Torn)));
    }

    #[test]
    fn oversized_and_empty_prefixes_are_rejected() {
        let mut r = FrameReader::new();
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut cur = std::io::Cursor::new(huge);
        assert!(matches!(
            r.read_frame(&mut cur),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME + 1
        ));
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Empty)));
    }

    #[test]
    fn http_get_prefix_reads_as_oversized() {
        // The sniffing invariant the dual-protocol port relies on.
        for head in [b"GET ", b"HEAD"] {
            assert!(u32::from_le_bytes(*head) > MAX_FRAME);
        }
    }

    /// One byte per `read`, then `WouldBlock` once dry — the slow-loris
    /// read path.
    struct OneByte<'a>(&'a [u8], usize);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.1 >= self.0.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            buf[0] = self.0[self.1];
            self.1 += 1;
            Ok(1)
        }
    }

    /// A scripted peer: each `read` delivers the next step — bytes (as
    /// many as fit; the rest stays queued) or, for `None`, a timeout.
    /// Past the script it reports EOF. `reads` counts every call.
    struct Script {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    impl Script {
        fn new(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> Self {
            Script {
                steps: steps.into_iter().collect(),
                reads: 0,
            }
        }

        /// `bytes` cut into `sizes`-long chunks (cycled), no timeouts.
        fn chunked(bytes: &[u8], sizes: &[usize]) -> Self {
            let mut steps = Vec::new();
            let mut at = 0;
            for &n in sizes.iter().cycle() {
                if at == bytes.len() {
                    break;
                }
                let to = (at + n).min(bytes.len());
                steps.push(Some(bytes[at..to].to_vec()));
                at = to;
            }
            Script::new(steps)
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::Error::new(io::ErrorKind::WouldBlock, "quiet")),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    /// Every frame `r` yields from `src` until it would need I/O that
    /// `src` cannot serve (a timeout) or the stream ends cleanly.
    fn drain(r: &mut FrameReader, src: &mut impl Read) -> (Vec<Vec<u8>>, Option<FrameError>) {
        let mut got = Vec::new();
        loop {
            match r.read_frame(src) {
                Ok(Some(p)) => got.push(p.to_vec()),
                Ok(None) => return (got, None),
                Err(e) => return (got, Some(e)),
            }
        }
    }

    const THREE: [&[u8]; 3] = [
        b"PING",
        b"RECOGNIZE nr_mapped_vmstat 60 120 6000.5 6010",
        b"STATS",
    ];

    #[test]
    fn three_frames_split_at_every_offset_decode_identically() {
        let bytes = framed(&THREE);
        for cut in 0..=bytes.len() {
            let mut r = FrameReader::new();
            // The head dribbles in a byte at a time and then goes quiet...
            let (mut got, stop) = drain(&mut r, &mut OneByte(&bytes[..cut], 0));
            assert!(
                matches!(stop, Some(FrameError::Timeout)),
                "cut {cut}: {stop:?}"
            );
            assert!(!r.frame_ready(), "cut {cut}");
            // ...and the tail arrives in one piece, then a clean close.
            let (tail, stop) = drain(&mut r, &mut io::Cursor::new(&bytes[cut..]));
            assert!(stop.is_none(), "cut {cut}: {stop:?}");
            got.extend(tail);
            assert_eq!(got, THREE.map(<[u8]>::to_vec), "cut {cut}");
        }
    }

    #[test]
    fn one_read_delivers_several_frames() {
        let mut src = Script::new([Some(framed(&THREE))]);
        let mut r = FrameReader::new();
        for want in THREE {
            assert_eq!(r.read_frame(&mut src).unwrap(), Some(want));
            assert_eq!(src.reads, 1, "later frames come from the buffer");
        }
        assert!(!r.frame_ready());
        assert_eq!(r.read_frame(&mut src).unwrap(), None);
        assert_eq!(src.reads, 2);
    }

    #[test]
    fn frame_larger_than_the_buffer_grows_it() {
        let big = vec![b'x'; 3 * READ_BUF + 17];
        let bytes = framed(&[b"PING", &big, b"STATS"]);
        for sizes in [&[bytes.len()][..], &[1000, 1], &[READ_BUF]] {
            let mut r = FrameReader::new();
            let (got, stop) = drain(&mut r, &mut Script::chunked(&bytes, sizes));
            assert!(stop.is_none(), "{sizes:?}: {stop:?}");
            assert_eq!(got, vec![b"PING".to_vec(), big.clone(), b"STATS".to_vec()]);
        }
    }

    #[test]
    fn max_frame_is_accepted_and_one_byte_more_is_refused_before_its_payload() {
        let max = vec![b'a'; MAX_FRAME as usize];
        let mut r = FrameReader::new();
        let mut cur = io::Cursor::new(framed(&[&max]));
        assert_eq!(
            r.read_frame(&mut cur).unwrap().map(<[u8]>::len),
            Some(max.len())
        );
        assert_eq!(r.read_frame(&mut cur).unwrap(), None);

        // The prefix alone arrives; the refusal must not wait for (or
        // read) a single payload byte.
        let prefix = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut src = Script::new([Some(prefix.clone()), Some(vec![b'a'; 64])]);
        let mut r = FrameReader::new();
        assert!(matches!(
            r.read_frame(&mut src),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME + 1
        ));
        assert_eq!(src.reads, 1, "no read past the prefix");
        assert!(r.frame_ready(), "the refusal needs no I/O");
        assert_eq!(r.buffered(), &prefix[..]);
    }

    #[test]
    fn timeouts_mid_prefix_and_mid_payload_resume() {
        let bytes = framed(&[b"PING", b"STATS"]);
        // prefix 2 | quiet | prefix 2 + payload 1 | quiet | the rest
        let mut src = Script::new([
            Some(bytes[..2].to_vec()),
            None,
            Some(bytes[2..5].to_vec()),
            None,
            Some(bytes[5..].to_vec()),
        ]);
        let mut r = FrameReader::new();
        for _ in 0..2 {
            assert!(matches!(r.read_frame(&mut src), Err(FrameError::Timeout)));
            assert!(!r.frame_ready());
        }
        assert_eq!(r.read_frame(&mut src).unwrap(), Some(&b"PING"[..]));
        assert_eq!(r.read_frame(&mut src).unwrap(), Some(&b"STATS"[..]));
        assert_eq!(r.read_frame(&mut src).unwrap(), None);
    }

    #[test]
    fn frame_ready_is_true_exactly_when_read_frame_needs_no_io() {
        let mut bytes = framed(&THREE);
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ends on an empty-frame refusal
        for sizes in [&[1][..], &[3], &[7, 2], &[11, 1, 5], &[bytes.len()]] {
            let mut src = Script::chunked(&bytes, sizes);
            let mut r = FrameReader::new();
            loop {
                let (ready, before) = (r.frame_ready(), src.reads);
                let out = r.read_frame(&mut src);
                assert_eq!(src.reads == before, ready, "{sizes:?}");
                match out {
                    Ok(Some(_)) => {}
                    Err(FrameError::Empty) => break,
                    other => panic!("{sizes:?}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn reader_resumes_across_byte_dribble() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"PING").unwrap();
        let mut src = OneByte(&framed, 0);
        let mut r = FrameReader::new();
        let mut timeouts = 0;
        loop {
            match r.read_frame(&mut src) {
                Ok(Some(p)) => {
                    assert_eq!(p, b"PING");
                    break;
                }
                Err(FrameError::Timeout) => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
            assert!(timeouts < 3, "must finish before going dry");
        }
        assert!(r.buffered().is_empty());
    }

    #[test]
    fn request_grammar_parses_and_rejects() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("RECOGNIZE mem_free 60 120 6000.5 6010").unwrap(),
            Request::Recognize {
                metric: "mem_free".into(),
                start: 60,
                end: 120,
                means: vec![6000.5, 6010.0],
            }
        );
        assert_eq!(
            Request::parse("STREAM vmstat::nr_dirty 4 60 120").unwrap(),
            Request::Stream {
                metric: "vmstat::nr_dirty".into(),
                nodes: 4,
                start: 60,
                end: 120,
            }
        );
        assert_eq!(
            Request::parse("PUSH 3 61 8110.25").unwrap(),
            Request::Push {
                node: 3,
                t: 61,
                value: 8110.25,
            }
        );
        assert_eq!(
            Request::parse("SWAP").unwrap(),
            Request::Swap { path: String::new() }
        );
        for bad in [
            "",
            "NOPE",
            "PING extra",
            "RECOGNIZE m 120 60 1.0", // inverted window
            "RECOGNIZE m 60 120",     // no means
            "RECOGNIZE m 60 120 NaN",
            "STREAM m 0 60 120", // zero nodes
            "PUSH 1 2",
            "PUSH 1 2 inf",
            "LEARN app X m 60 120",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn verdict_rendering_is_deterministic() {
        let rec = Recognition {
            verdict: Verdict::Ambiguous(vec!["sp".into(), "bt".into()]),
            app_votes: vec![],
            label_votes: vec![],
            matched_points: 4,
            total_points: 6,
        };
        assert_eq!(render_answer("OK", 7, &rec), "OK 7 4 6 ambiguous bt,sp");
        assert_eq!(verdict_label(&rec), "ambiguous");
    }
}

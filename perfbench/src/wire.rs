//! The daemon as a child process, and the client that drives it over
//! the frame protocol: closed loops, open loops timed from each
//! request's due time, `/metrics` scrapes and reconciliation.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::{Item, Kind};

/// How long a reply may take before the run gives up on it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `efd serve --listen` child.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon, wait for its listening line, and answer one
    /// PING. Returns the daemon and the time from spawn to `PONG`.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<(Daemon, f64), String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let _ = child.wait();
                return Err(format!(
                    "daemon exited before listening ({})",
                    bin.display()
                ));
            }
            if let Some(rest) = line.strip_prefix("listening:") {
                let a = rest.split_whitespace().next().unwrap_or("");
                break a.parse::<SocketAddr>().map_err(|e| format!("{a}: {e}"))?;
            }
        };
        let mut conn = Conn::open(addr)?;
        conn.send(b"PING")?;
        conn.flush()?;
        let pong = conn.recv()?;
        let setup = t0.elapsed().as_secs_f64();
        if pong != b"PONG" {
            return Err(format!(
                "first reply {:?}, not PONG",
                String::from_utf8_lossy(&pong)
            ));
        }
        Ok((
            Daemon {
                child,
                _stdout: stdout,
                addr,
            },
            setup,
        ))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// SHUTDOWN and wait for the process to exit (killed after 10 s).
    pub fn stop(mut self) -> Result<(), String> {
        let bye = Conn::open(self.addr).and_then(|mut c| {
            c.send(b"SHUTDOWN")?;
            c.flush()?;
            c.recv()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after SHUTDOWN".into());
                }
            }
        }
        match bye {
            Ok(b) if b == b"BYE" => Ok(()),
            Ok(b) => Err(format!(
                "SHUTDOWN answered {:?}",
                String::from_utf8_lossy(&b)
            )),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One frame-protocol connection.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        let r = BufReader::with_capacity(64 * 1024, s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            r,
            w: BufWriter::with_capacity(64 * 1024, s),
        })
    }

    pub fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        self.w
            .write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|_| self.w.write_all(payload))
            .map_err(|e| format!("send: {e}"))
    }

    pub fn flush(&mut self) -> Result<(), String> {
        self.w.flush().map_err(|e| format!("flush: {e}"))
    }

    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        let mut buf = Vec::new();
        self.recv_into(&mut buf)?;
        Ok(buf)
    }

    pub fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<(), String> {
        read_frame(&mut self.r, buf).map_err(|e| format!("recv: {e}"))
    }
}

/// Client-side tallies of one daemon's lifetime, reconciled against its
/// `/metrics` counters after the run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent, by `efd_requests_total` command label.
    pub commands: BTreeMap<&'static str, u64>,
    /// Verdicts received, by label.
    pub verdicts: BTreeMap<&'static str, u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Replies that differ from the oracle, ERR replies, and requests
    /// never answered.
    pub failed: u64,
    /// First few mismatches, for the report.
    pub samples: Vec<String>,
}

impl Tally {
    pub fn sent(&mut self, command: &'static str) {
        *self.commands.entry(command).or_default() += 1;
        self.attempted += 1;
    }

    /// Check one reply against the oracle. Returns whether it matched.
    pub fn check(&mut self, got: &[u8], expect: &str) -> bool {
        if let Some(label) = reply_verdict(got) {
            *self.verdicts.entry(label).or_default() += 1;
        }
        if got == expect.as_bytes() {
            return true;
        }
        self.failed += 1;
        if self.samples.len() < 5 {
            self.samples.push(format!(
                "got {:?}, want {expect:?}",
                String::from_utf8_lossy(got)
            ));
        }
        false
    }

    pub fn merge(&mut self, o: Tally) {
        for (k, v) in o.commands {
            *self.commands.entry(k).or_default() += v;
        }
        for (k, v) in o.verdicts {
            *self.verdicts.entry(k).or_default() += v;
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.samples.extend(o.samples.into_iter().take(5));
    }

    /// Requests sent that never got a reply.
    pub fn unanswered(&mut self, n: u64) {
        self.failed += n;
        if n > 0 && self.samples.len() < 5 {
            self.samples.push(format!("{n} requests unanswered"));
        }
    }
}

/// The verdict label an `OK`/`VERDICT` reply carries.
fn reply_verdict(reply: &[u8]) -> Option<&'static str> {
    let s = std::str::from_utf8(reply).ok()?;
    let mut it = s.split(' ');
    match it.next()? {
        "OK" | "VERDICT" => {}
        _ => return None,
    }
    match it.nth(3)? {
        "recognized" => Some("recognized"),
        "ambiguous" => Some("ambiguous"),
        "unknown" => Some("unknown"),
        _ => None,
    }
}

/// A pool of requests replayed in order, cycling.
pub struct Cursor<'a> {
    pool: &'a [Item],
    next: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(pool: &'a [Item], start: usize) -> Self {
        Cursor {
            pool,
            next: start % pool.len(),
        }
    }

    /// Next request and the reply it must get.
    pub fn next(&mut self) -> (&'a Item, &'a str) {
        let item = &self.pool[self.next];
        self.next = (self.next + 1) % self.pool.len();
        (item, item.expect.as_str())
    }
}

/// Result of one closed-loop phase on one connection.
#[derive(Debug, Default)]
pub struct Closed {
    pub tally: Tally,
    /// Correct replies, by kind.
    pub ok: BTreeMap<&'static str, u64>,
    /// STREAM-to-VERDICT times of completed sessions, ns, with each
    /// session's node count.
    pub sessions_ns: Vec<(u16, u64)>,
    pub elapsed: Duration,
}

/// Closed loop on one connection: write `depth` frames, flush, read their
/// `depth` replies, repeat until `dur` has passed.
pub fn closed_loop(conn: &mut Conn, cur: &mut Cursor<'_>, depth: usize, dur: Duration) -> Closed {
    let mut out = Closed::default();
    let mut batch: Vec<(&Item, &str)> = Vec::with_capacity(depth);
    let mut reply = Vec::new();
    let mut session_start: Option<(Instant, u16)> = None;
    let t0 = Instant::now();
    let deadline = t0 + dur;
    while Instant::now() < deadline {
        batch.clear();
        for _ in 0..depth {
            let (item, expect) = cur.next();
            if conn.send(item.payload.as_bytes()).is_err() {
                break;
            }
            out.tally.sent(item.kind.command());
            batch.push((item, expect));
        }
        let sent_at = Instant::now();
        if conn.flush().is_err() {
            out.tally.unanswered(batch.len() as u64);
            break;
        }
        for (i, (item, expect)) in batch.iter().enumerate() {
            if conn.recv_into(&mut reply).is_err() {
                out.tally.unanswered((batch.len() - i) as u64);
                out.elapsed = t0.elapsed();
                return out;
            }
            if item.kind == Kind::Stream {
                let nodes = item.payload.split(' ').nth(2).and_then(|n| n.parse().ok());
                session_start = Some((sent_at, nodes.unwrap_or(0)));
            }
            if out.tally.check(&reply, expect) {
                *out.ok.entry(item.kind.command()).or_default() += 1;
                if item.verdict.is_some() && item.kind != Kind::Recognize {
                    if let Some((s, nodes)) = session_start.take() {
                        out.sessions_ns.push((nodes, s.elapsed().as_nanos() as u64));
                    }
                }
            }
        }
    }
    out.elapsed = t0.elapsed();
    out
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct Open {
    pub tally: Tally,
    /// Latency of each correct reply from its due time, ns.
    pub latency_ns: Vec<u64>,
    /// The same, for the replies that carry a verdict.
    pub verdict_ns: Vec<u64>,
    /// How late each request left the generator, ns.
    pub lag_ns: Vec<u64>,
    pub sent: u64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Let `sleep` wake close to the requested time (the default 50 µs timer
/// slack would batch sends at the rates the open loop runs).
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only affects
    // the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open loop at `rate` requests/s over `conns` (round-robin) for `dur`:
/// a sender thread sends each request at its due time whatever the
/// replies are doing; a receiver thread reads the replies in order and
/// times each from its due time, so a stall counts against every request
/// it delayed.
pub fn open_loop(conns: &mut [Conn], cur: &mut Cursor<'_>, rate: f64, dur: Duration) -> Open {
    let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let plan: Vec<(&Item, &str)> = (0..n).map(|_| cur.next()).collect();
    let (reads, writes): (Vec<_>, Vec<_>) = conns.iter_mut().map(|c| (&mut c.r, &mut c.w)).unzip();
    let k = writes.len();
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + interval * i as u32;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            tight_timer_slack();
            let mut writes = writes;
            let mut lag = Vec::with_capacity(n);
            let mut tally = Tally::default();
            let mut i = 0;
            'send: while i < n {
                sleep_until(due(i));
                let now = Instant::now();
                // Send everything that is due, then flush once per conn.
                while i < n && due(i) <= now {
                    let p = plan[i].0.payload.as_bytes();
                    let w = &mut writes[i % k];
                    if w.write_all(&(p.len() as u32).to_le_bytes())
                        .and_then(|_| w.write_all(p))
                        .is_err()
                    {
                        break 'send;
                    }
                    tally.sent(plan[i].0.kind.command());
                    lag.push(now.saturating_duration_since(due(i)).as_nanos() as u64);
                    i += 1;
                }
                if writes.iter_mut().any(|w| w.flush().is_err()) {
                    break;
                }
            }
            (lag, tally)
        });
        // Reply i follows request i on its connection, so a blocking read
        // waits for the sender too; no polling.
        let mut reads = reads;
        let mut out = Open::default();
        let mut reply = Vec::new();
        let mut i = 0usize;
        while i < n {
            if read_frame(reads[i % k], &mut reply).is_err() {
                break;
            }
            let at = Instant::now();
            if out.tally.check(&reply, plan[i].1) {
                let ns = at.saturating_duration_since(due(i)).as_nanos() as u64;
                out.latency_ns.push(ns);
                if plan[i].0.verdict.is_some() {
                    out.verdict_ns.push(ns);
                }
            }
            i += 1;
        }
        let (lag, sent_tally) = sender.join().expect("sender thread");
        out.sent = sent_tally.attempted;
        out.tally.unanswered(out.sent - i as u64);
        out.tally.merge(sent_tally);
        out.lag_ns = lag;
        out
    })
}

fn read_frame(r: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    buf.resize(u32::from_le_bytes(len) as usize, 0);
    r.read_exact(buf)
}

/// Unpipelined PINGs on one connection for `dur`: round-trip times, ns.
pub fn ping_rtts(conn: &mut Conn, tally: &mut Tally, dur: Duration) -> Vec<u64> {
    let mut out = Vec::new();
    let mut reply = Vec::new();
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline {
        let t = Instant::now();
        tally.sent("ping");
        if conn
            .send(b"PING")
            .and_then(|_| conn.flush())
            .and_then(|_| conn.recv_into(&mut reply))
            .is_err()
        {
            tally.unanswered(1);
            break;
        }
        if tally.check(&reply, "PONG") {
            out.push(t.elapsed().as_nanos() as u64);
        }
    }
    out
}

/// Scrape `/metrics` into `series{labels} -> value`.
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    s.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("scrape: {e}"))?;
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .ok_or("scrape: no HTTP body")?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Compare the client's tallies with the daemon's counters. Every
/// mismatching counter is returned as one line.
pub fn reconcile(m: &BTreeMap<String, f64>, t: &Tally) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |series: String, want: u64| {
        let got = m.get(&series).copied().unwrap_or(0.0);
        if got != want as f64 {
            bad.push(format!("{series}: daemon {got}, client {want}"));
        }
    };
    for c in [
        "ping",
        "recognize",
        "stream",
        "push",
        "finish",
        "learn",
        "swap",
        "stats",
        "status",
    ] {
        let want = t.commands.get(c).copied().unwrap_or(0);
        check(format!("efd_requests_total{{command=\"{c}\"}}"), want);
    }
    for v in ["recognized", "ambiguous", "unknown"] {
        check(
            format!("efd_verdicts_total{{verdict=\"{v}\"}}"),
            t.verdicts.get(v).copied().unwrap_or(0),
        );
    }
    for (k, v) in m {
        if k.starts_with("efd_protocol_errors_total") && *v != 0.0 {
            bad.push(format!("{k}: {v}"));
        }
    }
    bad
}

/// Server-side mean request time in µs between two scrapes.
pub fn request_mean_us(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let n = d("efd_request_duration_seconds_count");
    if n > 0.0 {
        d("efd_request_duration_seconds_sum") / n * 1e6
    } else {
        0.0
    }
}

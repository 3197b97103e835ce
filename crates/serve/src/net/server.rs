//! The recognition daemon: `TcpListener` + one thread per connection
//! over the engine API.
//!
//! ## Thread model
//!
//! One nonblocking acceptor thread polls `accept()` (and the SIGHUP
//! reload flag) on a short tick and spawns an `efd-conn` thread, with
//! its own [`VoteScratch`], per accepted socket: a connection's requests
//! are answered in order by one thread, and no connection waits for
//! another to close. Past [`MAX_CONNS`] the acceptor answers `ERR busy`
//! and drops the socket (`efd_protocol_errors_total{kind="busy"}`).
//!
//! ## Hot swap
//!
//! The engine lives behind `RwLock<Arc<Published>>`, where `Published`
//! pairs the engine with a monotonically increasing generation. A
//! request clones the `Arc` once and computes its whole answer against
//! that publication — republication ([`Server::publish`], the `SWAP`
//! command, or SIGHUP via [`Server::hup_flag`]) swaps the `Arc` and
//! can never tear an in-flight answer. Every response carries the
//! generation it was computed against, which is what the hot-swap test
//! asserts on.
//!
//! ## Idle discipline
//!
//! Connection threads read with a 100 ms timeout and tally quiet ticks; a
//! connection idle past [`ServerConfig::idle_timeout`] — including one
//! dribbling a frame a byte at a time (slow loris) — is dropped and
//! counted in `efd_protocol_errors_total{kind="idle-timeout"}`.
//!
//! ## Batched socket I/O
//!
//! Each connection reads through one buffered [`FrameReader`]: a single
//! `read` picks up every frame the peer has pipelined, and the replies
//! queue in a `BufWriter` that is flushed only when no complete frame
//! is left in the read buffer — just before the thread could block on
//! a read — and before the connection ends. A batch of 32 pipelined
//! requests costs one read and one write, not 96 syscalls.
//!
//! ## One port, two protocols
//!
//! A valid frame prefix is ≤ [`MAX_FRAME`], while `GET `/`HEAD` decode
//! far above it, so a connection whose first frame is refused as
//! oversized and opens with one of them is handed, with the bytes
//! already read, to the HTTP handler: plain-HTTP scrapes of `/metrics`
//! and `/healthz` share the recognition port. A peer that closes after
//! 1–3 bytes is a torn frame at once, not a wait for the idle timeout.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{LabeledObservation, Query};
use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId, NodeId};

use super::drift::{DriftBaseline, DriftConfig, DriftMonitor, DriftSnapshot};
use super::metrics::DaemonMetrics;
use super::protocol::{
    render_answer, verdict_label, write_frame, FrameError, FrameReader, Request, MAX_FRAME,
};
use crate::{Backend, DurableDictionary, OnlineSession, Source};

/// Connection read-timeout tick: the granularity of idle accounting and
/// shutdown observation.
const READ_TICK: Duration = Duration::from_millis(100);
/// Acceptor poll tick (nonblocking `accept` + reload-flag check).
const ACCEPT_TICK: Duration = Duration::from_millis(2);
/// Cap on `STREAM` node counts — bounds per-session memory.
const MAX_STREAM_NODES: u16 = 4096;
/// Cap on a buffered HTTP request head.
const MAX_HTTP_HEAD: usize = 8 * 1024;
/// Admission cap: connections served at once. Each costs one thread and
/// one descriptor, so 256 stays well under the default 1024-descriptor
/// soft limit, even in a test holding both ends of every socket in one
/// process. No caller in this repository opens more than 8.
pub const MAX_CONNS: usize = 256;

/// A publishable engine: the recognizer every request answers through,
/// plus the optional durable learner (`--wal` mode) that accepts
/// `LEARN` requests.
#[derive(Clone)]
pub struct Engine {
    /// The recognition backend behind the engine API.
    pub recognizer: Arc<dyn Recognize + Send + Sync>,
    /// Present only in durable (`--wal`) mode; `LEARN` writes ahead
    /// through it, and reads see learns immediately (the recognizer
    /// *is* the durable dictionary's sharded live form).
    pub learner: Option<Arc<DurableDictionary>>,
    /// Key count at publication time (live key count in durable mode
    /// comes from [`Engine::keys_now`]).
    pub keys: usize,
    /// Short backend kind name for `STATS` (`snapshot`, `efdb`, ...).
    pub kind: &'static str,
    /// Served catalog artifact version (`hpc-apps@v3`) or manifest
    /// identity; `None` for plain file-backed engines.
    pub version: Option<String>,
    /// Abstention baseline recorded when the served version was
    /// published; drives the drift monitor. `None` = never alarm.
    pub baseline: Option<DriftBaseline>,
}

impl Engine {
    /// An immutable (file-backed) engine.
    pub fn fixed(
        recognizer: Arc<dyn Recognize + Send + Sync>,
        keys: usize,
        kind: &'static str,
    ) -> Self {
        Engine {
            recognizer,
            learner: None,
            keys,
            kind,
            version: None,
            baseline: None,
        }
    }

    /// Load a dictionary file as a registry `backend` — how the daemon
    /// starts, and how `SWAP`/SIGHUP rebuild it.
    pub fn load(
        path: &Path,
        backend: Backend,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Self, String> {
        let shown = path.display();
        let raw = std::fs::read(path).map_err(|e| format!("{shown}: {e}"))?;
        let (recognizer, keys) = backend
            .build(Source::Bytes(raw), catalog, shards)
            .map_err(|e| format!("{shown}: {e}"))?;
        Ok(Engine::fixed(recognizer, keys, backend.name()))
    }

    /// Tag the engine with the catalog version it serves.
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = Some(version.into());
        self
    }

    /// Attach the published version's abstention baseline.
    pub fn with_baseline(mut self, baseline: DriftBaseline) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Version for status lines: the catalog ref, or `-` outside the
    /// catalog.
    pub fn version_label(&self) -> &str {
        self.version.as_deref().unwrap_or("-")
    }

    /// A durable engine: serves and learns through one
    /// [`DurableDictionary`].
    pub fn durable(d: Arc<DurableDictionary>) -> Self {
        let keys = d.dictionary().len();
        Engine {
            recognizer: d.clone(),
            learner: Some(d),
            keys,
            kind: "durable",
            version: None,
            baseline: None,
        }
    }

    /// Current key count: live in durable mode, frozen otherwise.
    pub fn keys_now(&self) -> usize {
        match &self.learner {
            Some(d) => d.dictionary().len(),
            None => self.keys,
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("kind", &self.kind)
            .field("keys", &self.keys)
            .field("durable", &self.learner.is_some())
            .field("version", &self.version)
            .field("baseline", &self.baseline)
            .finish()
    }
}

/// A pluggable engine loader: how `SWAP path` / SIGHUP rebuild an
/// engine from a path. Manifest serving installs one that treats the
/// path as a `recognizer.v1` manifest; without one, paths load through
/// the registry as [`ServerConfig::backend`].
pub type EngineLoader = Arc<dyn Fn(&Path) -> Result<Engine, String> + Send + Sync>;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Drop a connection after this much continuous quiet.
    pub idle_timeout: Duration,
    /// Shard fan-out for snapshots built on reload.
    pub shards: usize,
    /// Registry backend built by `SWAP`/SIGHUP reloads.
    pub backend: Backend,
    /// Metric-name resolution for requests.
    pub catalog: MetricCatalog,
    /// Path reloaded by SIGHUP and a bare `SWAP` (normally the daemon's
    /// `--load` or `--manifest` argument).
    pub reload_path: Option<PathBuf>,
    /// Drift-monitor tuning (window, warm-up floor, alarm margin).
    pub drift: DriftConfig,
    /// Custom engine loader for reloads (manifest mode); `None` loads
    /// dictionary files through the registry.
    pub loader: Option<EngineLoader>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("idle_timeout", &self.idle_timeout)
            .field("shards", &self.shards)
            .field("backend", &self.backend)
            .field("reload_path", &self.reload_path)
            .field("drift", &self.drift)
            .field("loader", &self.loader.as_ref().map(|_| "<custom>"))
            .finish_non_exhaustive()
    }
}

impl ServerConfig {
    /// Defaults: 30 s idle timeout, 8 shards, snapshot backend, no
    /// reload path, default drift tuning.
    pub fn new(catalog: MetricCatalog) -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(30),
            shards: 8,
            backend: Backend::Snapshot,
            catalog,
            reload_path: None,
            drift: DriftConfig::default(),
            loader: None,
        }
    }
}

/// One published engine generation.
struct Published {
    gen: u64,
    engine: Engine,
}

struct Shared {
    cfg: ServerConfig,
    published: RwLock<Arc<Published>>,
    metrics: DaemonMetrics,
    drift: DriftMonitor,
    shutdown: AtomicBool,
    hup: Arc<AtomicBool>,
}

impl Shared {
    fn current(&self) -> Arc<Published> {
        self.published.read().expect("published lock").clone()
    }

    fn publish(&self, engine: Engine) -> u64 {
        let version = engine.version.clone();
        let baseline = engine.baseline;
        let mut w = self.published.write().expect("published lock");
        let gen = w.gen + 1;
        *w = Arc::new(Published { gen, engine });
        drop(w);
        self.metrics.generation.set(gen as i64);
        self.metrics.swaps_total.inc();
        // The new version is judged only by traffic it answered itself:
        // rebaseline clears the window (and any standing alarm).
        self.metrics.set_version(version);
        self.drift.rebaseline(baseline);
        gen
    }

    /// Build an engine from a path the way this daemon was configured
    /// to: through the custom loader (manifest mode) or [`Engine::load`].
    fn load(&self, path: &Path) -> Result<Engine, String> {
        match &self.cfg.loader {
            Some(loader) => loader(path),
            None => Engine::load(path, self.cfg.backend, &self.cfg.catalog, self.cfg.shards),
        }
    }

    fn reload(&self) -> Result<u64, String> {
        let path = self
            .cfg
            .reload_path
            .as_ref()
            .ok_or("no reload path configured")?;
        if self.current().engine.learner.is_some() {
            return Err("durable mode learns in place; reload does not apply".into());
        }
        let engine = self.load(path)?;
        Ok(self.publish(engine))
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The Prometheus exposition. Its drift gauges are refreshed here,
    /// from one monitor reading per scrape rather than per verdict.
    fn metrics_text(&self) -> String {
        self.metrics.observe_drift(&self.drift.snapshot());
        self.metrics.render()
    }
}

/// Totals reported when the daemon exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered over the daemon's lifetime.
    pub requests: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// A running recognition daemon. Dropping the handle does **not** stop
/// the daemon — call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), publish
    /// the initial engine as generation 1, and start the acceptor.
    pub fn start(addr: &str, cfg: ServerConfig, engine: Engine) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("{addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("{addr}: {e}"))?;
        let metrics = DaemonMetrics::new();
        metrics.generation.set(1);
        metrics.set_version(engine.version.clone());
        let drift = DriftMonitor::new(cfg.drift);
        drift.rebaseline(engine.baseline);
        let shared = Arc::new(Shared {
            cfg,
            published: RwLock::new(Arc::new(Published { gen: 1, engine })),
            metrics,
            drift,
            shutdown: AtomicBool::new(false),
            hup: Arc::new(AtomicBool::new(false)),
        });
        let s = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("efd-accept".into())
            .spawn(move || accept_loop(&s, listener))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        Ok(Server {
            shared,
            addr: local,
            acceptor,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag a SIGHUP handler sets to request a reload; the acceptor
    /// polls and clears it.
    pub fn hup_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.hup)
    }

    /// The daemon's metric surface (tests read gauges directly).
    pub fn metrics(&self) -> &DaemonMetrics {
        &self.shared.metrics
    }

    /// Render the Prometheus exposition (same text `/metrics` serves).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Current published engine generation.
    pub fn generation(&self) -> u64 {
        self.shared.current().gen
    }

    /// Current drift-monitor reading (tests assert on state edges).
    pub fn drift_snapshot(&self) -> DriftSnapshot {
        self.shared.drift.snapshot()
    }

    /// Atomically republish a new engine; returns its generation.
    pub fn publish(&self, engine: Engine) -> u64 {
        self.shared.publish(engine)
    }

    /// Reload the configured path (what SIGHUP does, synchronously).
    pub fn reload(&self) -> Result<u64, String> {
        self.shared.reload()
    }

    /// Signal shutdown: stop accepting; every connection thread ends
    /// within a read tick. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// True until shutdown has been signalled.
    pub fn running(&self) -> bool {
        !self.shared.stopping()
    }

    /// Block until the acceptor and every connection thread have exited.
    pub fn join(self) -> ServeSummary {
        let _ = self.acceptor.join();
        ServeSummary {
            requests: self.shared.metrics.requests_total(),
            connections: self.shared.metrics.connections_total.get(),
        }
    }
}

/// Accept until shutdown, one `efd-conn` thread per admitted socket,
/// then join those threads: [`Server::join`] waits for every connection.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        if shared.hup.swap(false, Ordering::SeqCst) {
            match shared.reload() {
                Ok(gen) => eprintln!("reloaded: generation {gen}"),
                Err(e) => eprintln!("warning: reload failed: {e}"),
            }
        }
        conns.extract_if(.., |h| h.is_finished()).for_each(reap);
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.inc();
                if shared.metrics.active_connections.get() >= MAX_CONNS as i64 {
                    refuse(shared, stream);
                    continue;
                }
                shared.metrics.active_connections.add(1);
                let mut conn = Conn {
                    shared: Arc::clone(shared),
                    stream: Some(stream),
                };
                // A failed spawn drops `conn` unserved, which refuses it.
                if let Ok(h) = thread::Builder::new().name("efd-conn".into()).spawn(move || {
                    let stream = conn.stream.take().expect("a new connection holds its socket");
                    let _ = frame_loop(&conn.shared, stream, &mut VoteScratch::default());
                }) {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            // Transient accept errors (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
    conns.into_iter().for_each(reap);
}

/// Join a connection thread. A panic in one ends only its connection.
fn reap(conn: JoinHandle<()>) {
    if conn.join().is_err() {
        eprintln!("warning: a connection thread panicked");
    }
}

/// Turn a connection away at admission: one best-effort `ERR busy`
/// frame, counted, then the socket drops.
fn refuse(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.count_error("busy");
    let msg = format!("ERR busy the daemon is serving its limit of {MAX_CONNS} connections");
    let _ = write_frame(&mut stream, msg.as_bytes());
}

/// An admitted connection, holding one `efd_active_connections` slot
/// until dropped. Dropped unserved (no thread started), it refuses.
struct Conn {
    shared: Arc<Shared>,
    stream: Option<TcpStream>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.shared.metrics.active_connections.add(-1);
        if let Some(stream) = self.stream.take() {
            refuse(&self.shared, stream);
        }
    }
}

/// Per-connection streaming state: one open [`OnlineSession`] plus the
/// generation and wall-clock instant it was opened against.
struct StreamState {
    sess: OnlineSession<dyn Recognize + Send + Sync>,
    metric: MetricId,
    gen: u64,
    opened: Instant,
}

enum Action {
    Continue,
    ShutdownDaemon,
}

struct Reply {
    text: String,
    action: Action,
}

fn reply(text: String) -> Reply {
    Reply {
        text,
        action: Action::Continue,
    }
}

/// Serve one connection to completion: frames, or one HTTP request if
/// it opens with `GET `/`HEAD`. Read → dispatch → queue, flushing the
/// queued replies only when no complete frame is buffered — just before
/// the read that could block — and before every exit, so a pipelined
/// batch is answered with one write.
fn frame_loop(shared: &Shared, stream: TcpStream, scratch: &mut VoteScratch) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut reader = FrameReader::new();
    // Reads and writes share the one descriptor through `&TcpStream`.
    let mut writer = BufWriter::new(&stream);
    // Decode instants of the replies queued since the last flush.
    let mut queued: Vec<Instant> = Vec::new();
    let mut session: Option<StreamState> = None;
    let mut idle = Duration::ZERO;
    let mut first = true;
    loop {
        if shared.stopping() {
            break;
        }
        if !reader.frame_ready() {
            flush(shared, &mut writer, &mut queued)?;
        }
        match reader.read_frame(&mut &stream) {
            Ok(None) => break, // clean close at a frame boundary
            Ok(Some(payload)) => {
                idle = Duration::ZERO;
                first = false;
                queued.push(Instant::now());
                let out = dispatch(shared, payload, &mut session, scratch);
                write_frame(&mut writer, out.text.as_bytes())?;
                if let Action::ShutdownDaemon = out.action {
                    shared.stop();
                    break;
                }
            }
            Err(FrameError::Timeout) => {
                idle += READ_TICK;
                if idle >= shared.cfg.idle_timeout {
                    shared.metrics.count_error("idle-timeout");
                    break;
                }
            }
            Err(FrameError::Torn) => {
                shared.metrics.count_error("torn");
                break;
            }
            Err(FrameError::Oversized(n)) => {
                // `GET ` and `HEAD` read as oversized prefixes: a
                // connection that opens with one is an HTTP request.
                let head = reader.buffered();
                if first && (head.starts_with(b"GET ") || head.starts_with(b"HEAD")) {
                    return handle_http(shared, &stream, head.to_vec());
                }
                shared.metrics.count_error("oversized");
                // Structured refusal, then drop: the stream position is
                // unrecoverable.
                let msg = format!("ERR oversized frame length {n} exceeds {MAX_FRAME} bytes");
                write_frame(&mut writer, msg.as_bytes())?;
                break;
            }
            Err(FrameError::Empty) => {
                shared.metrics.count_error("empty");
                write_frame(&mut writer, b"ERR empty zero-length frame")?;
                break;
            }
            Err(FrameError::Io(_)) => break, // reset/broken pipe: clean drop
        }
    }
    // Best effort: the peer may already be gone.
    let _ = flush(shared, &mut writer, &mut queued);
    Ok(())
}

/// Write out the queued replies, then observe each one's
/// `efd_request_duration_seconds` (frame decoded → response flushed).
fn flush(
    shared: &Shared,
    writer: &mut BufWriter<&TcpStream>,
    queued: &mut Vec<Instant>,
) -> io::Result<()> {
    writer.flush()?;
    if !queued.is_empty() {
        let now = Instant::now();
        for t in queued.drain(..) {
            shared.metrics.request_duration.observe_duration(now - t);
        }
    }
    Ok(())
}

/// Answer one request. Infallible by construction: every failure mode
/// is a structured `ERR <kind> <message>` response.
fn dispatch(
    shared: &Shared,
    payload: &[u8],
    session: &mut Option<StreamState>,
    scratch: &mut VoteScratch,
) -> Reply {
    let line = match std::str::from_utf8(payload) {
        Ok(l) => l,
        Err(_) => {
            shared.metrics.count_error("malformed");
            return reply("ERR malformed payload is not UTF-8".into());
        }
    };
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(why) => {
            shared.metrics.count_error("malformed");
            return reply(format!("ERR malformed {why}"));
        }
    };
    shared.metrics.count_request(req.command());
    match req {
        Request::Ping => reply("PONG".into()),
        Request::Recognize {
            metric,
            start,
            end,
            means,
        } => {
            let Some(m) = shared.cfg.catalog.id(&metric) else {
                return unknown_metric(shared, &metric);
            };
            let q = Query::from_node_means(m, Interval::new(start, end), &means);
            let p = shared.current();
            let rec = p.engine.recognizer.recognize_into(&q, scratch).normalized();
            note_verdict(shared, &rec);
            reply(render_answer("OK", p.gen, &rec))
        }
        Request::Stream {
            metric,
            nodes,
            start,
            end,
        } => {
            if session.is_some() {
                shared.metrics.count_error("bad-state");
                return reply("ERR bad-state a stream is already open on this connection".into());
            }
            if nodes > MAX_STREAM_NODES {
                shared.metrics.count_error("malformed");
                return reply(format!(
                    "ERR malformed STREAM nodes {nodes} exceeds the {MAX_STREAM_NODES} cap"
                ));
            }
            let Some(m) = shared.cfg.catalog.id(&metric) else {
                return unknown_metric(shared, &metric);
            };
            let p = shared.current();
            let node_ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            let sess = OnlineSession::new(
                Arc::clone(&p.engine.recognizer),
                &[m],
                &node_ids,
                vec![Interval::new(start, end)],
            );
            let horizon = sess.horizon_s();
            *session = Some(StreamState {
                sess,
                metric: m,
                gen: p.gen,
                opened: Instant::now(),
            });
            reply(format!("OPENED {} {horizon}", p.gen))
        }
        Request::Push { node, t, value } => {
            let Some(st) = session.as_mut() else {
                shared.metrics.count_error("bad-state");
                return reply("ERR bad-state no open stream (send STREAM first)".into());
            };
            follow_swap(shared, st);
            match st.sess.push(NodeId(node), st.metric, t, value) {
                Some(rec) => {
                    let rec = rec.normalized();
                    let st = session.take().expect("checked above");
                    stream_verdict(shared, &st, &rec)
                }
                None => reply(format!("ACK {}", st.sess.collected())),
            }
        }
        Request::Finish => {
            let Some(mut st) = session.take() else {
                shared.metrics.count_error("bad-state");
                return reply("ERR bad-state no open stream to finish".into());
            };
            follow_swap(shared, &mut st);
            let rec = st.sess.finish().normalized();
            stream_verdict(shared, &st, &rec)
        }
        Request::Learn {
            app,
            input,
            metric,
            start,
            end,
            means,
        } => {
            let p = shared.current();
            let Some(learner) = p.engine.learner.as_ref() else {
                shared.metrics.count_error("read-only");
                return reply(
                    "ERR read-only this daemon serves an immutable snapshot \
                     (start with --wal to accept LEARN)"
                        .into(),
                );
            };
            let Some(m) = shared.cfg.catalog.id(&metric) else {
                return unknown_metric(shared, &metric);
            };
            let obs = LabeledObservation {
                label: AppLabel::new(&app, &input),
                query: Query::from_node_means(m, Interval::new(start, end), &means),
            };
            match learner.learn(&obs) {
                Ok(()) => reply(format!("LEARNED {}", learner.dictionary().len())),
                Err(e) => reply(format!("ERR io {e}")),
            }
        }
        Request::Swap { path } => {
            if shared.current().engine.learner.is_some() {
                shared.metrics.count_error("bad-state");
                return reply(
                    "ERR bad-state durable mode learns in place; SWAP applies to \
                     file-backed engines"
                        .into(),
                );
            }
            let outcome = if path.is_empty() {
                shared.reload()
            } else {
                shared
                    .load(Path::new(&path))
                    .map(|engine| shared.publish(engine))
            };
            match outcome {
                Ok(gen) => {
                    let p = shared.current();
                    reply(format!(
                        "SWAPPED {gen} {} {}",
                        p.engine.keys,
                        p.engine.version_label()
                    ))
                }
                Err(e) => reply(format!("ERR swap-failed {e}")),
            }
        }
        Request::Stats => {
            let p = shared.current();
            reply(format!(
                "STATS gen={} keys={} backend={} version={} connections={} requests={}",
                p.gen,
                p.engine.keys_now(),
                p.engine.kind,
                p.engine.version_label(),
                shared.metrics.connections_total.get(),
                shared.metrics.requests_total(),
            ))
        }
        Request::Status => {
            let p = shared.current();
            let snap = shared.drift.snapshot();
            let (bu, ba) = match snap.baseline {
                Some(b) => (format!("{:.4}", b.unknown_rate), format!("{:.4}", b.ambiguous_rate)),
                None => ("-".to_string(), "-".to_string()),
            };
            reply(format!(
                "STATUS gen={} version={} backend={} keys={} drift={} samples={} \
                 unknown_rate={:.4} ambiguous_rate={:.4} \
                 baseline_unknown={bu} baseline_ambiguous={ba}",
                p.gen,
                p.engine.version_label(),
                p.engine.kind,
                p.engine.keys_now(),
                snap.state.name(),
                snap.samples,
                snap.unknown_rate,
                snap.ambiguous_rate,
            ))
        }
        Request::Shutdown => Reply {
            text: "BYE".into(),
            action: Action::ShutdownDaemon,
        },
    }
}

fn unknown_metric(shared: &Shared, metric: &str) -> Reply {
    shared.metrics.count_error("unknown-metric");
    reply(format!("ERR unknown-metric {metric:?} is not in the catalog"))
}

/// Re-point an open stream at the latest publication (window means
/// collected so far are kept — only the dictionary changes).
fn follow_swap(shared: &Shared, st: &mut StreamState) {
    let p = shared.current();
    if p.gen != st.gen {
        st.sess.swap(Arc::clone(&p.engine.recognizer));
        st.gen = p.gen;
    }
}

fn stream_verdict(shared: &Shared, st: &StreamState, rec: &efd_core::Recognition) -> Reply {
    shared
        .metrics
        .time_to_first_verdict
        .observe_duration(st.opened.elapsed());
    note_verdict(shared, rec);
    reply(render_answer("VERDICT", st.gen, rec))
}

/// Count a verdict and feed the drift monitor; a judgement edge
/// (ok → alarm, alarm → ok, ...) is logged exactly once. The drift
/// gauges are refreshed at scrape time, not here.
fn note_verdict(shared: &Shared, rec: &efd_core::Recognition) {
    let label = verdict_label(rec);
    shared.metrics.count_verdict(label);
    if let Some((from, to)) = shared.drift.record(label) {
        let snap = shared.drift.snapshot();
        eprintln!(
            "drift: {} -> {} (version={} unknown_rate={:.3} ambiguous_rate={:.3} window={})",
            from.name(),
            to.name(),
            shared.metrics.version().as_deref().unwrap_or("-"),
            snap.unknown_rate,
            snap.ambiguous_rate,
            snap.samples,
        );
    }
}

/// Minimal HTTP/1.1: `GET /metrics` (Prometheus text), `GET /healthz`.
/// One request per connection (`Connection: close`); `head` is what the
/// frame reader had already received.
fn handle_http(shared: &Shared, mut stream: &TcpStream, mut head: Vec<u8>) -> io::Result<()> {
    let mut buf = [0u8; 1024];
    let mut idle = Duration::ZERO;
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_HTTP_HEAD {
            break;
        }
        if shared.stopping() {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                idle = Duration::ZERO;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += READ_TICK;
                if idle >= shared.cfg.idle_timeout {
                    shared.metrics.count_error("idle-timeout");
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
    let text = String::from_utf8_lossy(&head);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") | ("HEAD", "/metrics") => {
            shared.metrics.scrapes_total.inc();
            ("200 OK", shared.metrics_text())
        }
        ("GET", "/healthz") | ("HEAD", "/healthz") => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    if method != "HEAD" {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

//! The traced run: the workload's generated requests replayed in-process
//! through the public functions the daemon calls, in the daemon's order,
//! with a span around each call.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{binfmt, Fingerprint, Query, Recognition};
use efd_serve::net::protocol::{render_answer, verdict_label, write_frame, FrameReader, Request};
use efd_serve::net::{DaemonMetrics, DriftConfig, DriftMonitor};
use efd_serve::{EfdbSnapshot, KeyStore, OnlineSession, Snapshot};
use efd_telemetry::{Interval, MetricCatalog, MetricId, NodeId};

/// Spans kept for the written trace (aggregates cover every span).
const SPAN_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// In-memory span recorder. With `on == false` every call is a no-op, so
/// the untraced replay runs the same code without clocks.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    next_id: u32,
    pub request: u64,
    /// name -> (self ns, count)
    pub totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            next_id: 1,
            request: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            self.stack.push(Open {
                id: self.next_id,
                name,
                start: Instant::now(),
                child_ns: 0,
            });
            self.next_id = self.next_id.wrapping_add(1);
        }
    }

    /// Close the innermost span, renaming it (a push is only known to be
    /// the verdict push once it has returned).
    pub fn end_as(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("span open");
        let dur = (end - open.start).as_nanos() as u64;
        let t = self.totals.entry(name).or_default();
        t.0 += dur.saturating_sub(open.child_ns);
        t.1 += 1;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: open.id,
                parent,
                name,
                request: self.request,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn end(&mut self) {
        if let Some(name) = self.stack.last().map(|o| o.name) {
            self.end_as(name);
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Mean self time of `name` in ns (0 if it never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64,
            _ => 0.0,
        }
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Layers on the daemon's timed request path (`efd_request_duration_seconds`
/// starts after the frame is read and ends after the reply is flushed).
pub const PATH_LAYERS: &[&str] = &[
    "protocol.parse",
    "metrics.count_request",
    "query.build",
    "efdb.recognize",
    "online.open",
    "online.push",
    "online.verdict",
    "metrics.count_verdict",
    "drift.record",
    "drift.snapshot",
    "metrics.observe_drift",
    "protocol.render",
    "protocol.write_frame",
];

/// Shards of the daemon's default snapshot backend (`--shards`).
pub const SHARDS: usize = 8;

/// An engine the daemon can serve from EFDB bytes: it answers queries and
/// exposes its keys for the separate rounding/probe pass.
pub trait Served: Recognize + KeyStore + Send + Sync {}

impl<T: Recognize + KeyStore + Send + Sync> Served for T {}

/// Load `bytes` the way `efd serve --load <efdb>` does: an `EfdbSnapshot`
/// over the bytes under `--backend efdb` (`zero_copy`), otherwise the
/// default backend, a [`SHARDS`]-shard `Snapshot` built from the decoded
/// sections.
pub fn load(
    bytes: Vec<u8>,
    catalog: &MetricCatalog,
    zero_copy: bool,
) -> Result<Arc<dyn Served>, String> {
    if zero_copy {
        let snap = EfdbSnapshot::load(bytes, catalog).map_err(|e| e.to_string())?;
        return Ok(Arc::new(snap));
    }
    let efdb = binfmt::read(&bytes).map_err(|e| e.to_string())?;
    let snap = Snapshot::from_efdb(&efdb, catalog, SHARDS).map_err(|e| e.to_string())?;
    Ok(Arc::new(snap))
}

/// The daemon's per-request work, in-process: what `frame_loop` and
/// `dispatch` do for one frame, minus the socket.
pub struct Replayer {
    catalog: MetricCatalog,
    published: RwLock<Arc<(u64, Arc<dyn Served>)>>,
    /// Store for the separate rounding/probe pass: a second copy of the
    /// served engine, so neither pass finds the keys the other just
    /// touched in cache.
    store: Arc<dyn Served>,
    drift: DriftMonitor,
    metrics: DaemonMetrics,
    scratch: VoteScratch,
    probe_scratch: VoteScratch,
    fps: Vec<Fingerprint>,
    session: Option<(OnlineSession<dyn Served>, MetricId)>,
    reader: FrameReader,
    sink: Vec<u8>,
    pub points: u64,
    pub matched: u64,
    pub probed_queries: u64,
}

impl Replayer {
    /// Serving `bytes` as the daemon does (see [`load`]).
    pub fn serving(
        bytes: &[u8],
        catalog: &MetricCatalog,
        zero_copy: bool,
    ) -> Result<Replayer, String> {
        let served = load(bytes.to_vec(), catalog, zero_copy)?;
        let store = load(bytes.to_vec(), catalog, zero_copy)?;
        let drift = DriftMonitor::new(DriftConfig::default());
        drift.rebaseline(None);
        let metrics = DaemonMetrics::new();
        metrics.observe_drift(&drift.snapshot());
        Ok(Replayer {
            catalog: catalog.clone(),
            published: RwLock::new(Arc::new((1, served))),
            store,
            drift,
            metrics,
            scratch: VoteScratch::default(),
            probe_scratch: VoteScratch::default(),
            fps: Vec::new(),
            session: None,
            reader: FrameReader::new(),
            sink: Vec::new(),
            points: 0,
            matched: 0,
            probed_queries: 0,
        })
    }

    /// Answer the next frame of `src`. Returns whether the reply equals
    /// `expect`. `side` is a stream verdict's query: its recognition ran
    /// inside `OnlineSession`, so it is timed again on its own, outside
    /// the request (a sibling root span, off the daemon's path).
    pub fn request(
        &mut self,
        tr: &mut Tracer,
        src: &mut std::io::Cursor<&[u8]>,
        expect: &str,
        side: Option<&Query>,
    ) -> bool {
        tr.request += 1;
        tr.begin("request");
        let reader = &mut self.reader;
        let payload = tr.time("protocol.read_frame", || reader.read_frame(src));
        let Ok(Some(payload)) = payload else {
            tr.end();
            return false;
        };
        let req = tr.time("protocol.parse", || {
            std::str::from_utf8(payload)
                .map_err(|e| e.to_string())
                .and_then(Request::parse)
        });
        let Ok(req) = req else {
            tr.end();
            return false;
        };
        let metrics = &self.metrics;
        tr.time("metrics.count_request", || {
            metrics.count_request(req.command())
        });
        let text = self.dispatch(tr, req);
        let sink = &mut self.sink;
        let _ = tr.time("protocol.write_frame", || {
            write_frame(sink, text.as_bytes())
        });
        let ok = self.sink.get(4..) == Some(expect.as_bytes());
        self.sink.clear();
        tr.end();
        if let Some(q) = side {
            let (p, scratch) = (self.current(), &mut self.scratch);
            let _ = tr.time("efdb.recognize", || {
                p.1.recognize_into(q, scratch).normalized()
            });
            self.probe_pass(tr, q);
        }
        ok
    }

    fn current(&self) -> Arc<(u64, Arc<dyn Served>)> {
        self.published.read().expect("published lock").clone()
    }

    fn dispatch(&mut self, tr: &mut Tracer, req: Request) -> String {
        match req {
            Request::Recognize {
                metric,
                start,
                end,
                means,
            } => {
                let (q, p) = tr.time("query.build", || {
                    let m = self.catalog.id(&metric).expect("known metric");
                    (
                        Query::from_node_means(m, Interval::new(start, end), &means),
                        self.current(),
                    )
                });
                let scratch = &mut self.scratch;
                let rec = tr.time("efdb.recognize", || {
                    p.1.recognize_into(&q, scratch).normalized()
                });
                self.probe_pass(tr, &q);
                self.note_verdict(tr, &rec);
                tr.time("protocol.render", || render_answer("OK", p.0, &rec))
            }
            Request::Stream {
                metric,
                nodes,
                start,
                end,
            } => {
                let (sess, m) = tr.time("online.open", || {
                    let m = self.catalog.id(&metric).expect("known metric");
                    let node_ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
                    let sess = OnlineSession::new(
                        self.current().1.clone(),
                        &[m],
                        &node_ids,
                        vec![Interval::new(start, end)],
                    );
                    (sess, m)
                });
                let horizon = sess.horizon_s();
                self.session = Some((sess, m));
                tr.time("protocol.render", || format!("OPENED 1 {horizon}"))
            }
            Request::Push { node, t, value } => {
                // The daemon re-reads the published engine on every push
                // (to follow a hot swap).
                let _ = tr.time("query.build", || self.current());
                let (sess, m) = self.session.as_mut().expect("open stream");
                tr.begin("online.push");
                let out = sess
                    .push(NodeId(node), *m, t, value)
                    .map(Recognition::normalized);
                match out {
                    Some(rec) => {
                        tr.end_as("online.verdict");
                        self.session = None;
                        self.note_verdict(tr, &rec);
                        tr.time("protocol.render", || render_answer("VERDICT", 1, &rec))
                    }
                    None => {
                        tr.end_as("online.push");
                        let n = sess.collected();
                        tr.time("protocol.render", || format!("ACK {n}"))
                    }
                }
            }
            Request::Finish => {
                let _ = tr.time("query.build", || self.current());
                let (mut sess, _) = self.session.take().expect("open stream");
                let rec = tr.time("online.verdict", || sess.finish().normalized());
                self.note_verdict(tr, &rec);
                tr.time("protocol.render", || render_answer("VERDICT", 1, &rec))
            }
            other => format!("ERR unexpected {:?}", other.command()),
        }
    }

    /// The vote kernel's three steps timed on their own (rounding every
    /// point, probing every key, finishing the votes into a normalized
    /// recognition), over the query just answered. Not on the daemon's path: `efdb.recognize` already did
    /// this work, so these spans split it rather than add to it.
    fn probe_pass(&mut self, tr: &mut Tracer, q: &Query) {
        let store = &self.store;
        let depth = store.depth();
        let fps = &mut self.fps;
        tr.time("fingerprint.from_raw", || {
            fps.clear();
            fps.extend(q.points.iter().filter_map(|p| {
                Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, depth)
            }));
        });
        let wide = q.points.len() <= VoteScratch::WIDE_VOTE_LIMIT;
        let scratch = &mut self.probe_scratch;
        scratch.ensure(store.labels().len(), store.apps().len());
        let matched = tr.time("efdb.probe", || {
            fps.iter()
                .filter(|fp| store.vote(fp, scratch, wide))
                .count()
        });
        let points = q.points.len();
        let _ = tr.time("efdb.finish", || {
            scratch
                .finish(store.labels(), store.apps(), matched, points)
                .normalized()
        });
        self.points += q.points.len() as u64;
        self.matched += matched as u64;
        self.probed_queries += 1;
    }

    /// `note_verdict`: count, record in the drift window, publish gauges.
    fn note_verdict(&mut self, tr: &mut Tracer, rec: &Recognition) {
        let label = verdict_label(rec);
        let (metrics, drift) = (&self.metrics, &self.drift);
        tr.time("metrics.count_verdict", || metrics.count_verdict(label));
        let edge = tr.time("drift.record", || drift.record(label));
        if edge.is_some() {
            let _ = tr.time("drift.snapshot", || drift.snapshot());
        }
        let snap = tr.time("drift.snapshot", || drift.snapshot());
        tr.time("metrics.observe_drift", || metrics.observe_drift(&snap));
    }
}

/// Frames of `items` concatenated, as the daemon would read them.
pub fn framed<'a>(payloads: impl Iterator<Item = &'a str>) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        write_frame(&mut out, p.as_bytes()).expect("write to Vec");
    }
    out
}

/// Per-op cost of the verdict bookkeeping the daemon does per answer —
/// `drift.record`, `drift.snapshot`, `metrics.observe_drift`,
/// `metrics.count_verdict` — alone and with 2 threads contending on one
/// monitor, ns/op. `labels` is the verdict mix to record.
pub fn bookkeeping(labels: &[&'static str], ops: usize) -> BTreeMap<String, f64> {
    let drift = DriftMonitor::new(DriftConfig::default());
    let metrics = DaemonMetrics::new();
    let snap = drift.snapshot();
    let run = |which: usize, ops: usize| {
        let t = Instant::now();
        for i in 0..ops {
            let label = labels[i % labels.len()];
            match which {
                0 => {
                    let _ = drift.record(label);
                }
                1 => {
                    let _ = drift.snapshot();
                }
                2 => metrics.observe_drift(&snap),
                _ => metrics.count_verdict(label),
            }
        }
        t.elapsed().as_nanos() as f64 / ops as f64
    };
    let mut out = BTreeMap::new();
    for (which, name) in [
        "drift.record",
        "drift.snapshot",
        "metrics.observe_drift",
        "metrics.count_verdict",
    ]
    .into_iter()
    .enumerate()
    {
        out.insert(format!("{name}_ns"), run(which, ops));
        let contended = std::thread::scope(|s| {
            let a = s.spawn(|| run(which, ops));
            let b = run(which, ops);
            (a.join().expect("contending thread") + b) / 2.0
        });
        out.insert(format!("{name}_contended_ns"), contended);
    }
    out
}

/// Median of `reps` timings of `f`, in ms.
pub fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

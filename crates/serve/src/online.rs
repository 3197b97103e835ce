//! Streaming recognition during execution.
//!
//! The paper's pitch is low latency: a verdict within the first two
//! minutes, *while the job is still running*. [`OnlineSession`] wires the
//! telemetry stream into a recognition engine: samples are fed as they
//! arrive (per node, per metric, per second); window aggregators emit
//! means the moment each fingerprint window closes; when every stream's
//! windows have closed, the session emits its verdict. No raw series are
//! buffered — memory is O(nodes × metrics).
//!
//! The session holds its engine as an `Arc<R>`, so sessions are
//! `'static` and `Send` (they can live in a session table and migrate
//! across threads) and can [`OnlineSession::swap`] to a newer
//! publication mid-stream — the verdict then reflects the latest learned
//! state. `R` is any [`Recognize`] backend: the default `Arc<`[`Snapshot`]`>`,
//! an `Arc<EfdDictionary>` in a lab harness, or
//! `Arc<dyn Recognize + Send + Sync>`, which is how the network daemon
//! keeps one per-connection session per streaming client regardless of
//! which backend `--backend` selected.

use std::sync::Arc;

use efd_telemetry::streaming::MultiWindowAggregator;
use efd_telemetry::{Interval, MetricId, NodeId};
use efd_util::FxHashMap;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{ObsPoint, Query, Recognition};

use crate::snapshot::Snapshot;

/// A `'static` streaming recognition session over an `Arc`-held engine.
///
/// Feed samples as they arrive; the session emits its verdict exactly
/// once, the moment the last fingerprint window closes (the paper's
/// "within the first two minutes, while the job is still running").
///
/// Generic over the published engine `R` (default [`Snapshot`]); use
/// `OnlineSession<dyn Recognize + Send + Sync>` to stream against a
/// runtime-selected backend.
#[derive(Debug, Clone)]
pub struct OnlineSession<R: Recognize + ?Sized = Snapshot> {
    intervals: Vec<Interval>,
    aggs: FxHashMap<(NodeId, MetricId), MultiWindowAggregator>,
    points: Vec<ObsPoint>,
    expected_summaries: usize,
    emitted: bool,
    snapshot: Arc<R>,
}

impl<R: Recognize + ?Sized> OnlineSession<R> {
    /// Set up streams for `nodes × metrics`, fingerprinting `intervals`,
    /// against a published snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty.
    pub fn new(
        snapshot: Arc<R>,
        metrics: &[MetricId],
        nodes: &[NodeId],
        intervals: Vec<Interval>,
    ) -> Self {
        assert!(!intervals.is_empty(), "no fingerprint intervals");
        let mut aggs = FxHashMap::default();
        for &n in nodes {
            for &m in metrics {
                aggs.insert((n, m), MultiWindowAggregator::new(intervals.clone()));
            }
        }
        let expected_summaries = nodes.len() * metrics.len() * intervals.len();
        Self {
            snapshot,
            intervals,
            aggs,
            points: Vec::new(),
            expected_summaries,
            emitted: false,
        }
    }

    /// Seconds after which all windows have closed (worst case).
    pub fn horizon_s(&self) -> u32 {
        self.intervals.iter().map(|iv| iv.end).max().unwrap_or(0)
    }

    /// The snapshot verdicts are currently computed against.
    pub fn snapshot(&self) -> &Arc<R> {
        &self.snapshot
    }

    /// Point the session at a newer publication. Window means collected so
    /// far are kept — only the dictionary behind the verdict changes.
    pub fn swap(&mut self, snapshot: Arc<R>) {
        self.snapshot = snapshot;
    }

    /// Feed one sample. Returns the final recognition exactly once — when
    /// the last open window across all streams closes. Samples for
    /// undeclared `(node, metric)` streams are ignored.
    pub fn push(
        &mut self,
        node: NodeId,
        metric: MetricId,
        t: u32,
        value: f64,
    ) -> Option<Recognition> {
        if self.emitted {
            return None;
        }
        let agg = self.aggs.get_mut(&(node, metric))?;
        for summary in agg.push(t, value) {
            self.points.push(ObsPoint {
                metric,
                node,
                interval: summary.interval,
                mean: summary.mean(),
            });
        }
        if self.points.len() >= self.expected_summaries {
            self.emitted = true;
            return Some(self.recognize_now());
        }
        None
    }

    /// Recognition over the windows closed *so far* (early peek; may be
    /// `Unknown` simply because no window has closed yet).
    pub fn current(&self) -> Recognition {
        self.recognize_now()
    }

    /// Number of window means collected so far.
    pub fn collected(&self) -> usize {
        self.points.len()
    }

    /// Force a verdict from whatever has been collected, flushing all
    /// still-open windows (job ended early).
    pub fn finish(&mut self) -> Recognition {
        if !self.emitted {
            let mut flushed: Vec<ObsPoint> = Vec::new();
            for ((node, metric), agg) in self.aggs.iter_mut() {
                for summary in agg.finish() {
                    flushed.push(ObsPoint {
                        metric: *metric,
                        node: *node,
                        interval: summary.interval,
                        mean: summary.mean(),
                    });
                }
            }
            self.points.extend(flushed);
            self.emitted = true;
        }
        self.recognize_now()
    }

    fn recognize_now(&self) -> Recognition {
        let q = Query {
            points: self.points.clone(),
        };
        self.snapshot.recognize(&q)
    }
}

/// A streaming session as an engine backend: ad-hoc queries are answered
/// against the publication the session **currently** holds (the same
/// snapshot its streaming verdict would use), so a session table can be
/// served through the one engine API alongside every other backend.
/// Stream state (collected window means) is not consulted — pass a query.
impl<R: Recognize + ?Sized> Recognize for OnlineSession<R> {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        self.snapshot.recognize_into(query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::{EfdDictionary, LabeledObservation, RoundingDepth, Verdict};
    use efd_telemetry::AppLabel;

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn snapshot_with(apps: &[(&str, f64)]) -> Arc<Snapshot> {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for &(app, mean) in apps {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(M, W, &[mean, mean]),
            });
        }
        Arc::new(Snapshot::freeze(&d, 4))
    }

    #[test]
    fn emits_once_when_window_closes() {
        let snap = snapshot_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(snap, &[M], &[NodeId(0), NodeId(1)], vec![W]);
        assert_eq!(s.horizon_s(), 120);
        let mut verdict = None;
        for t in 0..=150u32 {
            for n in [NodeId(0), NodeId(1)] {
                let v = if t < 60 { 50_000.0 } else { 6010.0 };
                if let Some(r) = s.push(n, M, t, v) {
                    assert!(verdict.is_none(), "double emit");
                    verdict = Some((t, r));
                }
            }
        }
        let (t, r) = verdict.expect("no verdict by horizon");
        assert_eq!(t, 120);
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    /// The lab-harness form: a session over the oracle dictionary itself.
    fn oracle_with(apps: &[(&str, f64)]) -> Arc<EfdDictionary> {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for &(app, mean) in apps {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(M, W, &[mean, mean]),
            });
        }
        Arc::new(d)
    }

    #[test]
    fn emits_when_window_closes() {
        let dict = oracle_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(dict, &[M], &[NodeId(0), NodeId(1)], vec![W]);
        assert_eq!(s.horizon_s(), 120);
        let mut verdict = None;
        for t in 0..=120u32 {
            for n in [NodeId(0), NodeId(1)] {
                // Wild values before 60 s (init phase) — must not matter.
                let v = if t < 60 { 50_000.0 } else { 6010.0 };
                if let Some(r) = s.push(n, M, t, v) {
                    assert!(verdict.is_none(), "double emit");
                    verdict = Some((t, r));
                }
            }
        }
        let (t, r) = verdict.expect("no verdict by horizon");
        assert_eq!(t, 120, "verdict should land exactly at window close");
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    #[test]
    fn current_is_unknown_before_any_window_closes() {
        let dict = oracle_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(dict, &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            s.push(NodeId(0), M, t, 6000.0);
        }
        assert_eq!(s.collected(), 0);
        assert_eq!(s.current().verdict, Verdict::Unknown);
    }

    #[test]
    fn finish_flushes_partial_windows() {
        let dict = oracle_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(dict, &[M], &[NodeId(0), NodeId(1)], vec![W]);
        for t in 0..90u32 {
            s.push(NodeId(0), M, t, 6005.0);
            s.push(NodeId(1), M, t, 5995.0);
        }
        let r = s.finish();
        // 30 in-window samples per node: enough for a mean → recognized.
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
        assert_eq!(r.matched_points, 2);
    }

    #[test]
    fn no_second_emission() {
        let dict = oracle_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(dict, &[M], &[NodeId(0)], vec![W]);
        let mut emitted = 0;
        for t in 0..300u32 {
            if s.push(NodeId(0), M, t, 6000.0).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 1);
    }

    #[test]
    fn session_is_send_and_static() {
        // The whole point of the served variant: sessions can move to
        // another thread while streaming.
        let snap = snapshot_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(snap, &[M], &[NodeId(0)], vec![W]);
        for t in 0..90u32 {
            s.push(NodeId(0), M, t, 6005.0);
        }
        let handle = std::thread::spawn(move || s.finish());
        let r = handle.join().expect("session thread");
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    #[test]
    fn swap_mid_stream_uses_newer_dictionary() {
        // Stream an app the first publication does not know yet.
        let before = snapshot_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(before, &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            s.push(NodeId(0), M, t, 8110.0);
        }
        assert_eq!(s.finish().verdict, Verdict::Unknown);

        // Same stream, but the dictionary learned "cg" mid-flight.
        let before = snapshot_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(before, &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            s.push(NodeId(0), M, t, 8110.0);
            if t == 50 {
                s.swap(snapshot_with(&[("ft", 6000.0), ("cg", 8110.0)]));
            }
        }
        assert_eq!(s.finish().verdict, Verdict::Recognized("cg".into()));
    }

    #[test]
    fn undeclared_stream_ignored() {
        let snap = snapshot_with(&[("ft", 6000.0)]);
        let mut s = OnlineSession::new(snap, &[M], &[NodeId(0)], vec![W]);
        assert!(s.push(NodeId(9), M, 0, 1.0).is_none());
        assert_eq!(s.collected(), 0);
        assert_eq!(s.current().verdict, Verdict::Unknown);
    }
}

//! The published, immutable form of a dictionary.
//!
//! A [`Snapshot`] is what the serving read path actually touches: no
//! locks, no interior mutability — just hash-partitioned maps behind an
//! `Arc`. Publication follows the classic read-copy-update shape: a
//! learner (an [`crate::ShardedDictionary`] or a plain
//! [`EfdDictionary`]) freezes its current state, the new `Arc<Snapshot>`
//! is swapped into the serving path, and in-flight readers finish on the
//! old one. Entries additionally precompute their deduplicated
//! application list so the recognition inner loop does zero label→app
//! indirection.

use efd_core::binfmt::{BinFormatError, Efdb};
use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{DictionaryParts, EfdDictionary, Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::AppLabel;
use efd_util::FxHashMap;

use crate::keystore::{self, KeyStore};
use crate::{shard_bits_for, shard_of};

/// One frozen entry: the stored labels plus their deduplicated apps (in
/// first-occurrence order, mirroring the oracle's per-point vote dedup).
#[derive(Debug, Clone)]
struct SnapEntry {
    labels: Box<[LabelId]>,
    apps: Box<[AppNameId]>,
}

/// An immutable, shard-partitioned freeze of a dictionary.
///
/// Cheap to share (`Arc<Snapshot>`), safe to read from any number of
/// threads, and answer-identical to the [`EfdDictionary`] it was frozen
/// from (modulo [`Recognition::normalized`] ordering). Recognition goes
/// through the engine API ([`Recognize`], re-exported from this crate):
/// `recognize_into` is the zero-allocation scratch path, `recognize` /
/// `recognize_batch` are the provided conveniences.
///
/// ```
/// use efd_core::{EfdDictionary, Query, RoundingDepth};
/// use efd_serve::{Recognize, Snapshot};
/// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
///     dict.insert_raw(MetricId(0), NodeId(node as u16), Interval::PAPER_DEFAULT,
///                     mean, &AppLabel::new("ft", "X"));
/// }
/// let snap = Snapshot::freeze(&dict, 8);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
/// // Same verdict as the live dictionary, from an immutable shared form.
/// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
/// assert_eq!(snap.len(), dict.len());
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    depth: RoundingDepth,
    shard_bits: u32,
    shards: Box<[FxHashMap<Fingerprint, SnapEntry>]>,
    labels: Vec<AppLabel>,
    apps: Vec<String>,
    label_app: Vec<AppNameId>,
}

impl Snapshot {
    /// Freeze [`DictionaryParts`] into `shards` hash partitions (rounded
    /// up to a power of two, clamped to [`crate::MAX_SHARD_BITS`] bits).
    /// Duplicate fingerprints across entries (hand-concatenated parts)
    /// merge their label lists, duplicates pruned — same semantics as
    /// [`EfdDictionary::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if the parts are internally inconsistent (out-of-range ids),
    /// like [`EfdDictionary::from_parts`]. Parts produced by
    /// [`EfdDictionary::into_parts`] are always consistent.
    pub fn from_parts(parts: DictionaryParts, shards: usize) -> Self {
        // Canonicalize through the core dictionary: one shared
        // implementation of key merging, per-list dedup, and consistency
        // validation (which is where the documented panics originate).
        let parts = EfdDictionary::from_parts(parts).into_parts();
        Self::assemble(
            parts.depth,
            parts.entries.into_iter().map(|(fp, ids)| (fp, ids.into_boxed_slice())),
            parts.labels,
            parts.apps,
            parts.label_app,
            shards,
        )
    }

    /// The one shard-map build every constructor funnels through:
    /// `entries` must already be canonical (unique keys, deduplicated
    /// label lists) — guaranteed by [`EfdDictionary::from_parts`] or a
    /// validated EFDB file.
    fn assemble(
        depth: RoundingDepth,
        entries: impl Iterator<Item = (Fingerprint, Box<[LabelId]>)>,
        labels: Vec<AppLabel>,
        apps: Vec<String>,
        label_app: Vec<AppNameId>,
        shards: usize,
    ) -> Self {
        let shard_bits = shard_bits_for(shards);
        let mut maps: Vec<FxHashMap<Fingerprint, SnapEntry>> =
            (0..(1usize << shard_bits)).map(|_| FxHashMap::default()).collect();
        for (fp, ids) in entries {
            let mut entry_apps: Vec<AppNameId> = Vec::with_capacity(1);
            for id in ids.iter() {
                let app = label_app[id.index()];
                if !entry_apps.contains(&app) {
                    entry_apps.push(app);
                }
            }
            maps[shard_of(&fp, shard_bits)].insert(
                fp,
                SnapEntry {
                    labels: ids,
                    apps: entry_apps.into_boxed_slice(),
                },
            );
        }
        Self {
            depth,
            shard_bits,
            shards: maps.into_boxed_slice(),
            labels,
            apps,
            label_app,
        }
    }

    /// Freeze a live dictionary without consuming it (clones the content;
    /// the dictionary can keep learning and re-publish later).
    pub fn freeze(dict: &EfdDictionary, shards: usize) -> Self {
        Self::from_parts(dict.to_parts(), shards)
    }

    /// Build a snapshot **directly from a decoded EFDB file** — the serve
    /// cold-start fast path.
    ///
    /// A validated [`Efdb`] already guarantees unique, bounds-checked keys
    /// and a consistent label table, so this constructor skips the
    /// intermediate [`EfdDictionary`] entirely: metric names resolve to
    /// ids once, then every key record becomes one shard-map insert. The
    /// only failure mode left is a metric name absent from `catalog`
    /// ([`BinFormatError::UnknownMetric`]).
    ///
    /// Answer-identical to loading the same file through
    /// [`efd_core::binfmt::read_dictionary`] and [`Snapshot::freeze`].
    ///
    /// ```
    /// use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
    /// use efd_serve::{Recognize, Snapshot};
    /// use efd_telemetry::catalog::small_catalog;
    /// use efd_telemetry::{AppLabel, Interval, NodeId};
    ///
    /// let catalog = small_catalog();
    /// let metric = catalog.id("nr_mapped_vmstat").unwrap();
    /// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    /// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
    ///     dict.insert_raw(metric, NodeId(node as u16), Interval::PAPER_DEFAULT,
    ///                     mean, &AppLabel::new("ft", "X"));
    /// }
    /// let bytes = binfmt::write(&dict.to_parts(), &catalog);
    ///
    /// // Cold start: bytes → decoded sections → served snapshot.
    /// let efdb = binfmt::read(&bytes).unwrap();
    /// let snap = Snapshot::from_efdb(&efdb, &catalog, 8).unwrap();
    /// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
    /// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
    /// assert_eq!(snap.len(), dict.len());
    /// ```
    pub fn from_efdb(
        efdb: &Efdb,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Self, BinFormatError> {
        let metric_ids = efdb.resolve_metrics(catalog)?;
        let entries = efdb.entries().iter().map(|e| {
            let fp = Fingerprint::from_rounded(
                metric_ids[e.metric as usize],
                e.node,
                e.interval,
                e.mean(),
            );
            (fp, e.labels.clone().into_boxed_slice())
        });
        Ok(Self::assemble(
            efdb.depth(),
            entries,
            efdb.labels().to_vec(),
            efdb.apps().to_vec(),
            efdb.label_app().to_vec(),
            shards,
        ))
    }

    /// Thaw back into a mutable [`EfdDictionary`] — e.g. to keep learning
    /// from a published artifact. Entries are emitted in deterministic
    /// packed-key order (the concurrent learn order is not recorded).
    pub fn to_dictionary(&self) -> EfdDictionary {
        let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = self
            .shards
            .iter()
            .flat_map(|m| m.iter().map(|(fp, e)| (*fp, e.labels.to_vec())))
            .collect();
        entries.sort_by_key(|(fp, _)| fp.pack());
        EfdDictionary::from_parts(DictionaryParts {
            depth: self.depth,
            entries,
            labels: self.labels.clone(),
            apps: self.apps.clone(),
            label_app: self.label_app.clone(),
        })
    }

    /// The rounding depth the frozen entries were built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Total number of keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }

    /// Number of hash partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Keys per shard, for load-balance inspection.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(FxHashMap::len).collect()
    }

    /// Distinct application names, in interned order.
    pub fn app_names(&self) -> &[String] {
        &self.apps
    }

    /// Distinct labels learned.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }
}

/// The owned [`KeyStore`]: fingerprints resolve through the shard maps,
/// and app votes come from each entry's pre-deduplicated app list (built
/// at freeze time, so no per-point dedup set is needed).
impl KeyStore for Snapshot {
    fn depth(&self) -> RoundingDepth {
        self.depth
    }

    fn labels(&self) -> &[AppLabel] {
        &self.labels
    }

    fn apps(&self) -> &[String] {
        &self.apps
    }

    #[inline]
    fn vote(&self, fp: &Fingerprint, scratch: &mut VoteScratch, wide: bool) -> bool {
        let Some(entry) = self.shards[shard_of(fp, self.shard_bits)].get(fp) else {
            return false;
        };
        if wide {
            for &id in entry.labels.iter() {
                scratch.vote_label_wide(id);
            }
        } else {
            for &id in entry.labels.iter() {
                scratch.vote_label(id);
            }
        }
        for &app in entry.apps.iter() {
            scratch.vote_app(app);
        }
        true
    }
}

/// The published form as an engine backend — `recognize_into` runs the
/// shared [`keystore`] vote kernel over the shard maps: dense per-thread
/// vote counters, no locks, answers in [`Recognition::normalized`] order.
impl Recognize for Snapshot {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        keystore::recognize_with(self, query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::LabeledObservation;
    use efd_telemetry::{AppLabel, Interval, MetricId};

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn toy_dict() -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, means) in [
            ("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
            ("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("miniAMR", "Z", [10980.0; 4]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, input),
                query: Query::from_node_means(M, W, &means),
            });
        }
        d
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::from_node_means(M, W, &[6031.0, 5988.0, 6007.0, 6044.0]),
            Query::from_node_means(M, W, &[7601.0, 7512.0, 7533.0, 7098.0]),
            Query::from_node_means(M, W, &[10951.0, 11020.0, 10990.0, 11043.0]),
            Query::from_node_means(M, W, &[1.0, 2.0, 3.0, 4.0]),
            Query::from_node_means(M, W, &[6000.0, 6000.0, 7500.0, f64::NAN]),
        ]
    }

    #[test]
    fn matches_oracle_on_every_query_at_every_shard_count() {
        let dict = toy_dict();
        for shards in [1usize, 2, 4, 8, 64] {
            let snap = Snapshot::freeze(&dict, shards);
            assert_eq!(snap.len(), dict.len());
            for q in queries() {
                let served = snap.recognize(&q);
                let oracle = dict.recognize(&q).normalized();
                assert_eq!(served, oracle, "shards={shards}");
            }
        }
    }

    #[test]
    fn shard_sizes_partition_all_keys() {
        let snap = Snapshot::freeze(&toy_dict(), 8);
        assert_eq!(snap.shard_count(), 8);
        assert_eq!(snap.shard_sizes().iter().sum::<usize>(), snap.len());
    }

    #[test]
    fn thaw_preserves_answers_and_supports_further_learning() {
        let dict = toy_dict();
        let snap = Snapshot::freeze(&dict, 4);
        let mut thawed = snap.to_dictionary();
        for q in queries() {
            assert_eq!(
                thawed.recognize(&q).normalized(),
                dict.recognize(&q).normalized()
            );
        }
        // "Learning new applications is as simple as adding new keys."
        thawed.learn(&LabeledObservation {
            label: AppLabel::new("kripke", "Y"),
            query: Query::from_node_means(M, W, &[8730.0; 4]),
        });
        let q = Query::from_node_means(M, W, &[8700.0; 4]);
        assert_eq!(thawed.recognize(&q).best(), Some("kripke"));
    }

    #[test]
    fn from_parts_merges_duplicate_fingerprints_like_core() {
        use efd_core::dictionary::LabelId;

        let dict = toy_dict();
        let mut parts = dict.to_parts();
        let fp = parts.entries[0].0;
        parts.entries.push((fp, vec![LabelId::from_index(1), LabelId::from_index(0)]));

        let snap = Snapshot::from_parts(parts.clone(), 4);
        let oracle = EfdDictionary::from_parts(parts);
        assert_eq!(snap.len(), oracle.len());
        for q in queries() {
            assert_eq!(snap.recognize(&q), oracle.recognize(&q).normalized());
        }
    }

    #[test]
    fn from_efdb_matches_freeze_on_every_query() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let dict = toy_dict();
        let bytes = efd_core::binfmt::write(&dict.to_parts(), &catalog);
        let efdb = efd_core::binfmt::read(&bytes).unwrap();
        for shards in [1usize, 4, 16] {
            let via_efdb = Snapshot::from_efdb(&efdb, &catalog, shards).unwrap();
            let via_freeze = Snapshot::freeze(&dict, shards);
            assert_eq!(via_efdb.len(), via_freeze.len());
            assert_eq!(via_efdb.depth(), dict.depth());
            assert_eq!(via_efdb.app_names(), via_freeze.app_names());
            for q in queries() {
                assert_eq!(
                    via_efdb.recognize(&q),
                    via_freeze.recognize(&q),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn from_efdb_rejects_unresolvable_metric() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let bytes = efd_core::binfmt::write(&toy_dict().to_parts(), &catalog);
        let efdb = efd_core::binfmt::read(&bytes).unwrap();
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            Snapshot::from_efdb(&efdb, &empty, 4),
            Err(efd_core::BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn empty_snapshot_answers_unknown() {
        let snap = Snapshot::freeze(&EfdDictionary::new(RoundingDepth::new(2)), 8);
        assert!(snap.is_empty());
        let r = snap.recognize(&Query::from_node_means(M, W, &[1.0]));
        assert_eq!(r.verdict, efd_core::Verdict::Unknown);
    }
}

//! The backend registry: the one list of dictionary-family engines this
//! crate serves, and the one constructor that builds them.
//!
//! The CLI (`efd serve --backend`), the daemon's `SWAP`/SIGHUP reloads,
//! `recognizer.v1` manifest stages and the evaluator's scenario matrix
//! all name a [`Backend`] and call [`Backend::build`], so a backend is
//! built the same way wherever it is served. The source is either dictionary file bytes —
//! EFDB or a JSON dump, told apart by [`binfmt::MAGIC`] — or a dictionary
//! already in memory, and only what the chosen backend needs is decoded:
//!
//! | backend    | from EFDB bytes                         | from a JSON dump or a dictionary        |
//! |------------|-----------------------------------------|-----------------------------------------|
//! | `snapshot` | [`Snapshot::from_efdb`]                 | [`Snapshot::freeze`]                    |
//! | `sharded`  | decode, then as a dictionary            | [`ShardedDictionary::from_parts`]       |
//! | `combo`    | decode, then as a dictionary            | [`ComboDictionary::from_single_metric`] |
//! | `efdb`     | bytes moved into [`EfdbSnapshot::load`] | re-encoded to canonical EFDB            |
//!
//! Every engine answers like the [`EfdDictionary`] oracle up to
//! [`efd_core::Recognition::normalized`] ordering.

use std::sync::Arc;

use efd_core::engine::Recognize;
use efd_core::multi::ComboDictionary;
use efd_core::{binfmt, serialize, EfdDictionary};
use efd_telemetry::MetricCatalog;

use crate::{EfdbSnapshot, ShardedDictionary, Snapshot};

/// A dictionary-family serving backend, selected by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Immutable published [`Snapshot`] (the default).
    Snapshot,
    /// Live [`ShardedDictionary`] behind per-shard `RwLock`s.
    Sharded,
    /// Conjunctive [`ComboDictionary`]; needs a single-metric dictionary.
    Combo,
    /// Zero-copy [`EfdbSnapshot`] straight over EFDB bytes.
    Efdb,
}

/// A built engine and the number of keys it serves.
pub type Built = (Arc<dyn Recognize + Send + Sync>, usize);

/// What a backend is built from.
#[derive(Debug)]
pub enum Source<'a> {
    /// Dictionary file bytes: EFDB when they start with
    /// [`binfmt::MAGIC`], otherwise a JSON dump.
    Bytes(Vec<u8>),
    /// A dictionary already in memory.
    Dictionary(&'a EfdDictionary),
}

impl Backend {
    /// Every backend, in the order help text and tests list them.
    pub const ALL: [Backend; 4] = [
        Backend::Snapshot,
        Backend::Sharded,
        Backend::Combo,
        Backend::Efdb,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Snapshot => "snapshot",
            Backend::Sharded => "sharded",
            Backend::Combo => "combo",
            Backend::Efdb => "efdb",
        }
    }

    /// Parse a backend name; the error lists every valid name.
    pub fn parse(name: &str) -> Result<Backend, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
                format!("unknown backend {name:?} ({})", names.join("|"))
            })
    }

    /// Build this backend over `source` with `shards` hash partitions
    /// (snapshot and sharded only). Metric names in EFDB and JSON bytes
    /// resolve through `catalog`.
    pub fn build(
        self,
        source: Source<'_>,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Built, String> {
        let is_efdb = |bytes: &[u8]| bytes.starts_with(&binfmt::MAGIC);
        let decoded;
        let dict = match (self, source) {
            (_, Source::Dictionary(dict)) => dict,
            (Backend::Efdb, Source::Bytes(bytes)) if is_efdb(&bytes) => {
                let snap = EfdbSnapshot::load(bytes, catalog).map_err(|e| e.to_string())?;
                let keys = snap.len();
                return Ok((Arc::new(snap), keys));
            }
            (Backend::Snapshot, Source::Bytes(bytes)) if is_efdb(&bytes) => {
                let efdb = binfmt::read(&bytes).map_err(|e| e.to_string())?;
                let snap =
                    Snapshot::from_efdb(&efdb, catalog, shards).map_err(|e| e.to_string())?;
                let keys = snap.len();
                return Ok((Arc::new(snap), keys));
            }
            (_, Source::Bytes(bytes)) if is_efdb(&bytes) => {
                decoded = binfmt::read_dictionary(&bytes, catalog).map_err(|e| e.to_string())?;
                &decoded
            }
            (_, Source::Bytes(bytes)) => {
                let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
                decoded = serialize::from_json(text, catalog).map_err(|e| e.to_string())?;
                &decoded
            }
        };
        let keys = dict.len();
        Ok(match self {
            Backend::Snapshot => (Arc::new(Snapshot::freeze(dict, shards)), keys),
            Backend::Sharded => (
                Arc::new(ShardedDictionary::from_parts(dict.to_parts(), shards)),
                keys,
            ),
            Backend::Combo => {
                let combo = ComboDictionary::from_single_metric(dict)
                    .ok_or("the combo backend needs a non-empty single-metric dictionary")?;
                let keys = combo.len();
                (Arc::new(combo), keys)
            }
            Backend::Efdb => {
                let bytes = binfmt::write_dictionary(dict, catalog);
                let snap = EfdbSnapshot::load(bytes, catalog).map_err(|e| e.to_string())?;
                (Arc::new(snap), keys)
            }
        })
    }
}

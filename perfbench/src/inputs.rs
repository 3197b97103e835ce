//! Seeded workload inputs and the oracle answers every reply is checked
//! against.
//!
//! Each workload is a pool of request frames plus, per frame, the exact
//! reply payload the daemon must send. Expected replies come from an
//! in-process [`EfdDictionary`] oracle, computed before any timing and
//! rendered with the daemon's own `render_answer`.

use std::sync::Arc;

use efd_core::{
    binfmt, AppNameId, DictionaryParts, EfdDictionary, Fingerprint, LabelId, LabeledObservation,
    ObsPoint, Query, Recognition, RoundingDepth,
};
use efd_eval::ExecutionClassifier;
use efd_serve::net::protocol::{render_answer, verdict_label};
use efd_serve::OnlineSession;
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId, NodeId};
use efd_util::{derive_seed, SplitMix64};
use efd_workload::{AppId, Dataset, DatasetSpec, SubsetKind};

/// The one metric every workload uses (the paper's headline metric).
pub const METRIC: &str = "nr_mapped_vmstat";
/// The paper's fingerprint window, `[60:120]`.
pub const WINDOW: Interval = Interval::PAPER_DEFAULT;
/// Generation the daemon publishes its first engine under.
const GEN: u64 = 1;

/// What a request is, for tallies and reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Recognize,
    Stream,
    Push,
    Finish,
}

impl Kind {
    /// The `efd_requests_total{command=...}` label.
    pub fn command(self) -> &'static str {
        match self {
            Kind::Recognize => "recognize",
            Kind::Stream => "stream",
            Kind::Push => "push",
            Kind::Finish => "finish",
        }
    }
}

/// One request frame and the reply the daemon must answer it with.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: Kind,
    pub payload: String,
    pub expect: String,
    /// Verdict label for replies that carry one (`recognized`, ...).
    pub verdict: Option<&'static str>,
    /// The query behind the verdict this reply carries: the RECOGNIZE
    /// query, or a stream session's window means (layer replay input).
    pub query: Option<Query>,
}

/// A generated workload: the dictionary served, and its request pools.
pub struct Inputs {
    pub catalog: MetricCatalog,
    /// The dictionary the daemon starts out serving.
    pub parts: DictionaryParts,
    /// Canonical EFDB bytes of `parts`.
    pub efdb: Vec<u8>,
    /// Served zero-copy with `--backend efdb`, rather than by the default
    /// snapshot backend.
    pub zero_copy: bool,
    /// The request pool: RECOGNIZE queries, or stream sessions
    /// (flattened).
    pub main: Vec<Item>,
    /// Stream-paper only: index ranges of `main` that form one session.
    pub sessions: Vec<std::ops::Range<usize>>,
}

fn expect_for(rec: Recognition, head: &str) -> (String, &'static str) {
    let rec = rec.normalized();
    (render_answer(head, GEN, &rec), verdict_label(&rec))
}

fn recognize_item(dict: &EfdDictionary, metric: MetricId, payload: String) -> Item {
    let means: Vec<f64> = payload
        .split(' ')
        .skip(4)
        .map(|t| t.parse().expect("generated mean parses"))
        .collect();
    let query = Query::from_node_means(metric, WINDOW, &means);
    let (expect, label) = expect_for(dict.recognize(&query), "OK");
    Item {
        kind: Kind::Recognize,
        payload,
        expect,
        verdict: Some(label),
        query: Some(query),
    }
}

/// Shape of the `recognize-1m` dictionary.
pub struct KeyspaceShape {
    /// Copies of the original study's run inventory (paper Table 2,
    /// [`SubsetKind::Full`]: 11 apps × X/Y/Z × 30 runs on 4 nodes, the 4
    /// starred apps × L × 6 runs on 32 nodes), each under its own app
    /// names. One app per copy is held out: never learned, so its queries
    /// are the `unknown` ones.
    pub groups: usize,
    /// RECOGNIZE queries in the request pool.
    pub queries: usize,
}

impl KeyspaceShape {
    /// About 1M keys: 262 copies of ~4,300 learned points each, less the
    /// points that land on a key another run already made.
    pub const FULL: KeyspaceShape = KeyspaceShape {
        groups: 262,
        queries: 32_768,
    };
    /// Smoke size: ~13k keys.
    pub const SMOKE: KeyspaceShape = KeyspaceShape {
        groups: 3,
        queries: 2_048,
    };
}

/// Seed of the `recognize-1m` dictionary. The dictionary is a fixed
/// fixture (built once per checkout and cached); `--seed` draws the
/// request pool over it.
const KEYSPACE_SEED: u64 = 0x1A;
/// Rounding depth of the keyspace: 6 significant digits, so learned
/// means in `[1e5, 1e6)` key to whole numbers, as window means of page
/// counters do at that depth.
const KEYSPACE_DEPTH: u8 = 6;
/// Learned means occupy `[1e5, 1e6)`; a query mean within ±0.3 of a
/// learned one hits its key.
const LEARNED_LO: u64 = 100_000;
const LEARNED_SPAN: u64 = 900_000;
/// Means of held-out apps sit in `[2e6, 9e6)`: no key there.
const UNKNOWN_LO: u64 = 2_000_000;
const UNKNOWN_SPAN: u64 = 7_000_000;
/// Share of queries for learned apps that mix two apps' nodes (answered
/// `ambiguous`): 9 of 68, the clean baseline's ambiguous share in
/// `SCENARIO_9.json` (59 recognized, 9 ambiguous, 0 unknown).
const AMBIGUOUS_OF_KNOWN: (u64, u64) = (9, 68);

/// One run of the scaled inventory.
struct Run {
    /// Label id, `None` for a held-out app.
    label: Option<u32>,
    /// Group-qualified app index (distinct apps have distinct values).
    app: usize,
    nodes: usize,
    /// Offset of the run's node means in the flat means vector.
    at: usize,
}

/// Name of the cached EFDB for `shape`: a hash of every source file the
/// generator and the EFDB writer could depend on (the library crates
/// under `crates/` and this file), so a change to either makes a new
/// file instead of serving bytes another version of the code wrote.
fn cache_name(shape: &KeyspaceShape) -> Result<String, String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for e in std::fs::read_dir(dir)? {
            let p = e?.path();
            if p.is_dir() {
                walk(&p, out)?;
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
        Ok(())
    }
    let mut files = vec![std::path::PathBuf::from("perfbench/src/inputs.rs")];
    walk(std::path::Path::new("crates"), &mut files).map_err(|e| format!("crates: {e}"))?;
    files.sort();
    // FNV-1a over every file's path and bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        for b in f.to_string_lossy().bytes().chain([0]).chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("keyspace-g{}-{h:016x}.efdb", shape.groups))
}

/// The cached EFDB of `parts`, written on a miss. Files an older version
/// of the code wrote for the same shape are removed.
fn cached_efdb(
    shape: &KeyspaceShape,
    parts: &DictionaryParts,
    catalog: &MetricCatalog,
    cache_dir: &std::path::Path,
) -> Result<Vec<u8>, String> {
    let name = cache_name(shape)?;
    let cached = cache_dir.join(&name);
    if let Ok(bytes) = std::fs::read(&cached) {
        return Ok(bytes);
    }
    let bytes = binfmt::write(parts, catalog);
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let stale = format!("keyspace-g{}-", shape.groups);
    for e in std::fs::read_dir(cache_dir).into_iter().flatten().flatten() {
        if e.file_name().to_string_lossy().starts_with(&stale) {
            let _ = std::fs::remove_file(e.path());
        }
    }
    let tmp = cached.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, &bytes)
        .and_then(|_| std::fs::rename(&tmp, &cached))
        .map_err(|e| format!("{}: {e}", cached.display()))?;
    Ok(bytes)
}

/// `recognize-1m`: a seeded single-metric dictionary over many labels
/// and a RECOGNIZE pool whose oracle verdict mix is mostly `recognized`.
///
/// The dictionary learns [`KeyspaceShape::groups`] copies of the original
/// study's run inventory, so labels, runs per label and the 4-node /
/// 32-node split all follow Table 2. Each query is a uniformly drawn run
/// of that inventory, so query sizes follow it too (about 2% of queries
/// carry 32 node means). A held-out app's run is answered `unknown`; a
/// learned run's query mixes its nodes half and half with another app's
/// run ([`AMBIGUOUS_OF_KNOWN`], answered `ambiguous`) or is the run's own
/// means, jittered within their keys (`recognized`).
///
/// The dictionary is built as [`DictionaryParts`] straight from the
/// generated keys and its EFDB is cached in `cache_dir`: building a 1M
/// whole-number-keyed `EfdDictionary` costs tens of seconds (see the
/// README), which is preparation, not anything a run measures. The
/// oracle answers each query with an `EfdDictionary` holding exactly the
/// entries that query's points probe, which gives the full dictionary's
/// answer.
pub fn recognize_1m(
    seed: u64,
    shape: &KeyspaceShape,
    cache_dir: &std::path::Path,
) -> Result<Inputs, String> {
    let study = Dataset::generate(DatasetSpec {
        subset: SubsetKind::Full,
        ..DatasetSpec::default()
    });
    let catalog = study.catalog().clone();
    let metric = catalog.id(METRIC).expect("headline metric in catalog");
    let depth = RoundingDepth::new(KEYSPACE_DEPTH);
    let mut rng = SplitMix64::new(derive_seed(KEYSPACE_SEED, &[shape.groups as u64]));
    let mut labels = Vec::new();
    let mut apps = Vec::new();
    let mut label_app = Vec::new();
    let mut label_ids = std::collections::HashMap::new();
    let mut app_ids = std::collections::HashMap::new();
    let mut runs = Vec::new();
    let mut means = Vec::new();
    // (node, mean bits, label) for every learned point: the key index.
    let mut index: Vec<(u16, u64, u32)> = Vec::new();
    for g in 0..shape.groups {
        let held_out = AppId::ALL[g % AppId::ALL.len()];
        for spec in study.runs() {
            let app =
                g * AppId::ALL.len() + AppId::ALL.iter().position(|&a| a == spec.app).unwrap_or(0);
            let nodes = usize::from(spec.n_nodes);
            if spec.app == held_out {
                runs.push(Run {
                    label: None,
                    app,
                    nodes,
                    at: 0,
                });
                continue;
            }
            let name = format!("{}-{g:03}", spec.app.name());
            let a = *app_ids.entry(app).or_insert_with(|| {
                apps.push(name.clone());
                apps.len() - 1
            });
            let l = *label_ids.entry((app, spec.input)).or_insert_with(|| {
                labels.push(AppLabel::new(name.as_str(), spec.input.name()));
                label_app.push(AppNameId::from_index(a));
                labels.len() as u32 - 1
            });
            runs.push(Run {
                label: Some(l),
                app,
                nodes,
                at: means.len(),
            });
            for n in 0..nodes {
                let m = (LEARNED_LO + rng.next_below(LEARNED_SPAN)) as f64;
                index.push((n as u16, m.to_bits(), l));
                means.push(m);
            }
        }
    }
    index.sort_unstable();
    index.dedup();
    let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = Vec::new();
    for &(node, bits, l) in &index {
        let fp = Fingerprint::from_rounded(metric, NodeId(node), WINDOW, f64::from_bits(bits));
        match entries.last_mut() {
            Some((last, ls)) if *last == fp => ls.push(LabelId::from_index(l as usize)),
            _ => entries.push((fp, vec![LabelId::from_index(l as usize)])),
        }
    }
    let parts = DictionaryParts {
        depth,
        entries,
        labels,
        apps,
        label_app,
    };
    let efdb = cached_efdb(shape, &parts, &catalog, cache_dir)?;

    let oracle = |payload: String| {
        let means: Vec<f64> = payload
            .split(' ')
            .skip(4)
            .map(|t| t.parse().expect("generated mean"))
            .collect();
        let query = Query::from_node_means(metric, WINDOW, &means);
        let mut probed = EfdDictionary::new(depth);
        for p in &query.points {
            let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, depth)
            else {
                continue;
            };
            let key = (p.node.0, fp.mean().to_bits());
            let lo = index.partition_point(|e| (e.0, e.1) < key);
            for &(_, bits, l) in index[lo..].iter().take_while(|e| (e.0, e.1) == key) {
                probed.insert_raw(
                    metric,
                    p.node,
                    p.interval,
                    f64::from_bits(bits),
                    &parts.labels[l as usize],
                );
            }
        }
        recognize_item(&probed, metric, payload)
    };

    let mut qrng = SplitMix64::new(derive_seed(seed, &[0x1A]));
    let rng = &mut qrng;
    let mut main = Vec::with_capacity(shape.queries);
    let jitter = |rng: &mut SplitMix64, m: f64| m + (rng.next_f64() - 0.5) * 0.6;
    let draw = |rng: &mut SplitMix64| &runs[rng.next_below(runs.len() as u64) as usize];
    for _ in 0..shape.queries {
        let run = draw(rng);
        let nodes = run.nodes;
        let values: Vec<f64> = if run.label.is_none() {
            (0..nodes)
                .map(|_| (UNKNOWN_LO + rng.next_below(UNKNOWN_SPAN)) as f64 + rng.next_f64())
                .collect()
        } else if rng.next_below(AMBIGUOUS_OF_KNOWN.1) < AMBIGUOUS_OF_KNOWN.0 {
            // Same allocation size, another learned app: half the nodes each.
            let other = loop {
                let o = draw(rng);
                if o.label.is_some() && o.nodes == nodes && o.app != run.app {
                    break o;
                }
            };
            (0..nodes)
                .map(|n| {
                    let from = if n < nodes / 2 { run } else { other };
                    jitter(rng, means[from.at + n])
                })
                .collect()
        } else {
            (0..nodes).map(|n| jitter(rng, means[run.at + n])).collect()
        };
        let mut payload = format!("RECOGNIZE {METRIC} {} {}", WINDOW.start, WINDOW.end);
        for v in values {
            payload.push_str(&format!(" {v:.2}"));
        }
        main.push(oracle(payload));
    }
    Ok(Inputs {
        catalog,
        parts,
        efdb,
        zero_copy: true,
        main,
        sessions: Vec::new(),
    })
}

/// The paper dataset and the dictionary `efd dump` writes for it: every
/// run learned on the headline metric.
fn paper() -> (Dataset, MetricId, EfdDictionary) {
    let d = Dataset::generate(DatasetSpec::default());
    let metric = d.catalog().id(METRIC).expect("headline metric in catalog");
    let mut c = efd_eval::EfdClassifier::new(metric);
    let all: Vec<usize> = (0..d.len()).collect();
    c.fit(&d, &all);
    let dict = c.model().expect("fitted").dictionary().clone();
    (d, metric, dict)
}

/// Seconds of each run replayed: the first two minutes plus the sample
/// at t = 120 that closes the `[60:120]` window.
const STREAM_HORIZON: u32 = 121;

/// `stream-paper`: the paper dictionary, and every run's first two
/// minutes of 1 Hz samples replayed as STREAM / PUSH... sessions in a
/// seeded order. A session gets its verdict from the PUSH that closes
/// the window, or from FINISH after its last sample if samples the
/// collector dropped leave the window open.
pub fn stream_paper(seed: u64, max_sessions: usize) -> Inputs {
    let (d, metric, dict) = paper();
    let catalog = d.catalog().clone();
    let efdb = binfmt::write_dictionary(&dict, &catalog);
    let oracle: Arc<EfdDictionary> = Arc::new(dict.clone());
    let mut rng = SplitMix64::new(derive_seed(seed, &[0x5E]));
    let mut order: Vec<usize> = (0..d.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order.truncate(max_sessions.max(1));
    let sel = MetricSelection::single(metric);
    let mut main = Vec::new();
    let mut sessions = Vec::new();
    for run in order {
        let trace = d.materialize_prefix(run, &sel, STREAM_HORIZON);
        let nodes = trace.node_count();
        let node_ids: Vec<NodeId> = (0..nodes as u16).map(NodeId).collect();
        let mut sess = OnlineSession::new(Arc::clone(&oracle), &[metric], &node_ids, vec![WINDOW]);
        let first = main.len();
        main.push(Item {
            kind: Kind::Stream,
            payload: format!("STREAM {METRIC} {nodes} {} {}", WINDOW.start, WINDOW.end),
            expect: format!("OPENED {GEN} {}", sess.horizon_s()),
            verdict: None,
            query: None,
        });
        let mut done = false;
        // The query the session's verdict recognizes: each node's mean over
        // the window (the layer replay times its recognition on its own).
        let mut window: Vec<(f64, u32)> = vec![(0.0, 0); nodes];
        'samples: for t in 0..STREAM_HORIZON {
            for (n, w) in window.iter_mut().enumerate() {
                let Some(v) = trace.series(NodeId(n as u16), metric).and_then(|s| s.at(t)) else {
                    continue;
                };
                if !v.is_finite() {
                    continue;
                }
                if (WINDOW.start..WINDOW.end).contains(&t) {
                    w.0 += v;
                    w.1 += 1;
                }
                let (expect, verdict) = match sess.push(NodeId(n as u16), metric, t, v) {
                    Some(rec) => {
                        let (e, l) = expect_for(rec, "VERDICT");
                        (e, Some(l))
                    }
                    None => (format!("ACK {}", sess.collected()), None),
                };
                main.push(Item {
                    kind: Kind::Push,
                    payload: format!("PUSH {n} {t} {v}"),
                    expect,
                    verdict,
                    query: None,
                });
                if verdict.is_some() {
                    done = true;
                    break 'samples;
                }
            }
        }
        if !done {
            let (expect, label) = expect_for(sess.finish(), "VERDICT");
            main.push(Item {
                kind: Kind::Finish,
                payload: "FINISH".into(),
                expect,
                verdict: Some(label),
                query: None,
            });
        }
        let points = window
            .iter()
            .enumerate()
            .filter(|(_, w)| w.1 > 0)
            .map(|(n, &(sum, count))| ObsPoint {
                metric,
                node: NodeId(n as u16),
                interval: WINDOW,
                mean: sum / f64::from(count),
            })
            .collect();
        main.last_mut().expect("session has a verdict").query = Some(Query { points });
        sessions.push(first..main.len());
    }
    Inputs {
        catalog,
        parts: dict.to_parts(),
        efdb,
        zero_copy: false,
        main,
        sessions,
    }
}

/// Labels the LEARN stream introduces; their keys sit at means ≥ 1e12,
/// far above any paper mean, so no read query ever touches them.
const NEW_LABELS: usize = 16;

/// Inputs of the durable write path (`core::wal`, `DurableDictionary`):
/// a WAL seeded so that recovery yields the paper dictionary, a LEARN
/// stream, and read queries to run beside it.
pub struct LearnStream {
    pub catalog: MetricCatalog,
    pub depth: RoundingDepth,
    /// The observations the WAL is seeded with: every paper run.
    pub seed_obs: Vec<LabeledObservation>,
    pub learns: Vec<LabeledObservation>,
    pub reads: Vec<Query>,
}

/// The LEARN stream re-learns paper runs verbatim (no new keys) nine
/// times in ten and otherwise learns one of [`NEW_LABELS`] fixed new
/// labels, so the dictionary grows by a bounded number of keys and runs
/// repeat. Reads are paper runs with their means jittered by ±0.2%.
pub fn learn_stream(seed: u64, learns: usize, reads: usize) -> LearnStream {
    let (d, metric, dict) = paper();
    let sel = MetricSelection::single(metric);
    let per_run: Vec<Vec<f64>> = d
        .window_means_all(&sel, WINDOW)
        .into_iter()
        .map(|nodes| nodes.into_iter().map(|m| m[0]).collect())
        .collect();
    let seed_obs: Vec<LabeledObservation> = per_run
        .iter()
        .zip(d.labels())
        .map(|(means, label)| LabeledObservation {
            label,
            query: Query::from_node_means(metric, WINDOW, means),
        })
        .collect();
    let mut rng = SplitMix64::new(derive_seed(seed, &[0x1E]));
    let learns = (0..learns)
        .map(|_| {
            if rng.next_below(10) == 0 {
                let k = rng.next_below(NEW_LABELS as u64) as usize;
                let means: Vec<f64> = (0..4).map(|n| (10 + k * 4 + n) as f64 * 1e11).collect();
                LabeledObservation {
                    label: AppLabel::new(format!("newapp{k:02}"), "X"),
                    query: Query::from_node_means(metric, WINDOW, &means),
                }
            } else {
                seed_obs[rng.next_below(seed_obs.len() as u64) as usize].clone()
            }
        })
        .collect();
    let reads = (0..reads)
        .map(|_| {
            let run = &per_run[rng.next_below(per_run.len() as u64) as usize];
            let means: Vec<f64> = run
                .iter()
                .map(|m| m * (1.0 + (rng.next_f64() - 0.5) * 0.004))
                .collect();
            Query::from_node_means(metric, WINDOW, &means)
        })
        .collect();
    LearnStream {
        catalog: d.catalog().clone(),
        depth: dict.depth(),
        seed_obs,
        learns,
        reads,
    }
}

//! The traced run's in-process side: the generated requests replayed
//! through the daemon's functions with tracing off and on, plus the
//! layer microbenchmarks a replay cannot isolate.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::inputs::{self, Inputs, Kind, LearnStream};
use crate::runs::{copy_dir, seed_wal};
use crate::trace::{self, Replayer, Tracer};
use crate::{json_str, leak, num, Ctx, Metrics};

/// Most keys `binfmt.write_ms` publishes.
const WRITE_KEYS: usize = 131_072;

/// The traced in-process replay plus the layer microbenchmarks.
pub fn layers(ctx: &mut Ctx, inp: &Inputs, workload: &str, seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    // The replay serves the backend the daemon served.
    let zero_copy = inp.zero_copy;
    let seq = &inp.main;
    let frames = trace::framed(seq.iter().map(|i| i.payload.as_str()));
    let replay_for = Duration::from_secs_f64((ctx.seconds * 0.15).max(0.2));
    let mut rates = Vec::new();
    let mut traced = None;
    for on in [false, true] {
        let mut rep = Replayer::serving(&inp.efdb, &inp.catalog, zero_copy)?;
        let mut tr = Tracer::new(on);
        let mut src = std::io::Cursor::new(frames.as_slice());
        let (mut i, mut wrong, mut done) = (0usize, 0u64, 0u64);
        let t0 = Instant::now();
        // Stop only between stream sessions.
        while t0.elapsed() < replay_for || matches!(seq[i].kind, Kind::Push | Kind::Finish) {
            let side = seq[i]
                .query
                .as_ref()
                .filter(|_| seq[i].kind != Kind::Recognize);
            if !rep.request(&mut tr, &mut src, &seq[i].expect, side) {
                wrong += 1;
            }
            done += 1;
            i += 1;
            if i == seq.len() {
                i = 0;
                src.set_position(0);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        rates.push(done as f64 / elapsed);
        if wrong > 0 {
            ctx.tally.failed += wrong;
            ctx.tally.samples.push(format!(
                "in-process replay: {wrong} replies differ from the oracle"
            ));
        }
        ctx.tally.attempted += done;
        if on {
            traced = Some((tr, rep, done));
        }
    }
    let (tr, rep, requests) = traced.expect("traced pass ran");
    let overhead = rates[0] / rates[1] - 1.0;
    m.insert("trace.overhead_share", overhead);
    ctx.note_f("replay_untraced_per_s", rates[0]);
    ctx.note_f("replay_traced_per_s", rates[1]);
    ctx.note("replay_requests", requests);
    let _ = std::fs::create_dir_all(".bench_out");
    let spans = PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{seed}.tsv"));
    tr.write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    ctx.note("spans_file", json_str(&spans.display().to_string()));

    for name in [
        "protocol.read_frame",
        "protocol.parse",
        "protocol.render",
        "protocol.write_frame",
        "metrics.count_request",
        "query.build",
        "fingerprint.from_raw",
        "efdb.probe",
        "efdb.recognize",
        "efdb.finish",
        "online.open",
        "online.push",
        "online.verdict",
    ] {
        m.insert(leak(format!("{name}_ns")), tr.mean_ns(name));
    }
    m.insert(
        "efdb.hit_ratio",
        rep.matched as f64 / rep.points.max(1) as f64,
    );
    m.insert(
        "efdb.points_per_query",
        rep.points as f64 / rep.probed_queries.max(1) as f64,
    );
    // Self time per request summed over the layers on the daemon's timed
    // path: the numerator of `server.layer_coverage`. A stream verdict's
    // recognition is already inside `online.verdict`; its own
    // `efdb.recognize` span is the separate timing, off the path.
    let streaming = !inp.sessions.is_empty();
    let path: u64 = trace::PATH_LAYERS
        .iter()
        .filter(|l| !streaming || **l != "efdb.recognize")
        .map(|l| tr.self_ns(l))
        .sum();
    m.insert("path_ns_per_request", path as f64 / requests.max(1) as f64);
    ctx.note(
        "layer_self_ns_per_request",
        format!(
            "{{{}}}",
            tr.totals
                .iter()
                .map(|(k, (ns, _))| format!(
                    "\"{k}\": {}",
                    num(*ns as f64 / requests.max(1) as f64)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );

    let labels: Vec<&'static str> = inp.main.iter().filter_map(|i| i.verdict).collect();
    let labels = if labels.is_empty() {
        vec!["recognized"]
    } else {
        labels
    };
    for (k, v) in trace::bookkeeping(&labels, if ctx.smoke { 20_000 } else { 200_000 }) {
        m.insert(leak(k), v);
    }
    let reps = if ctx.smoke { 1 } else { 3 };
    m.insert(
        "efdb.load_ms",
        trace::median_ms(reps, || {
            let bytes = inp.efdb.clone();
            let t = Instant::now();
            let engine = trace::load(bytes, &inp.catalog, zero_copy).expect("valid EFDB");
            let e = t.elapsed();
            drop(engine);
            e
        }),
    );
    // Publishing the 1M-key dictionary takes minutes (see the README), too
    // long for one run; above `WRITE_KEYS` keys the first `WRITE_KEYS` of
    // the sorted entries, with every label, are published instead.
    let mut published = inp.parts.clone();
    published.entries.truncate(WRITE_KEYS);
    ctx.note("binfmt_write_keys", published.entries.len());
    m.insert(
        "binfmt.write_ms",
        trace::median_ms(reps, || {
            let t = Instant::now();
            let bytes = efd_core::binfmt::write(&published, &inp.catalog);
            let e = t.elapsed();
            drop(bytes);
            e
        }),
    );
    // The durable write path, over the paper dictionary and a LEARN
    // stream drawn from the run's seed (no gated workload learns; see the
    // README).
    if workload == "stream-paper" {
        let (learns, reads) = if ctx.smoke {
            (2_000, 200)
        } else {
            (50_000, 4_096)
        };
        wal_layers(ctx, &inputs::learn_stream(seed, learns, reads), &mut m)?;
    } else {
        for k in [
            "durable.learn_us",
            "wal.append_us",
            "wal.sync_ms",
            "wal.syncs",
            "wal.freeze_ms",
            "wal.freezes",
            "wal.recover_ms",
            "sharded.recognize_ns",
        ] {
            m.insert(k, 0.0);
        }
    }
    Ok(m)
}

/// `core::wal` on its own, in the order `DurableDictionary` drives it
/// (append, apply, freeze when the log is fat), with the default
/// every-32 sync done explicitly so append and sync are timed apart; WAL
/// recovery of the seeded directory; and `DurableDictionary::learn` on one
/// thread while sharded recognition runs on another.
fn wal_layers(ctx: &mut Ctx, inp: &LearnStream, m: &mut Metrics) -> Result<(), String> {
    use efd_core::wal::{LearnRecord, SyncPolicy, WalDir, WalOptions, WalRecord};
    let err = |e: efd_core::WalError| e.to_string();
    let seeded = ctx.work.join("wal-seed");
    seed_wal(inp, &seeded)?;
    let dir = ctx.work.join("wal-layer");
    copy_dir(&seeded, &dir).map_err(|e| e.to_string())?;
    let opts = WalOptions {
        sync: SyncPolicy::Never,
        ..WalOptions::default()
    };
    let (mut wal, rec) = WalDir::open(&dir, inp.depth, &inp.catalog, opts).map_err(err)?;
    let live = efd_serve::ShardedDictionary::from_parts(rec.dictionary.to_parts(), trace::SHARDS);
    let obs = &inp.learns;
    let (mut append, mut sync, mut freeze) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut appends, mut syncs, mut freezes) = (0u64, 0u64, 0u64);
    let until = Instant::now() + Duration::from_secs_f64((ctx.seconds * 0.1).max(0.2));
    let mut i = 0;
    while Instant::now() < until {
        let record = WalRecord::Learn(LearnRecord::from_observation(
            &obs[i % obs.len()],
            &inp.catalog,
        ));
        let t = Instant::now();
        wal.append(&record).map_err(err)?;
        append += t.elapsed();
        appends += 1;
        live.learn(&obs[i % obs.len()]);
        if appends % 32 == 0 {
            let t = Instant::now();
            wal.sync().map_err(err)?;
            sync += t.elapsed();
            syncs += 1;
        }
        if wal.should_freeze() {
            let t = Instant::now();
            wal.freeze(&live.to_parts(), &inp.catalog).map_err(err)?;
            freeze += t.elapsed();
            freezes += 1;
        }
        i += 1;
    }
    m.insert(
        "wal.append_us",
        append.as_secs_f64() * 1e6 / appends.max(1) as f64,
    );
    m.insert(
        "wal.sync_ms",
        sync.as_secs_f64() * 1e3 / syncs.max(1) as f64,
    );
    m.insert("wal.syncs", syncs as f64);
    m.insert(
        "wal.freeze_ms",
        freeze.as_secs_f64() * 1e3 / freezes.max(1) as f64,
    );
    m.insert("wal.freezes", freezes as f64);
    m.insert(
        "wal.recover_ms",
        trace::median_ms(3, || {
            let t = Instant::now();
            let r = efd_core::wal::recover(&seeded, &inp.catalog).expect("seeded WAL recovers");
            let e = t.elapsed();
            drop(r);
            e
        }),
    );

    // Sharded recognition with a durable learner writing beside it.
    let ldir = ctx.work.join("wal-contended");
    copy_dir(&seeded, &ldir).map_err(|e| e.to_string())?;
    let (durable, _) = efd_serve::DurableDictionary::open(
        &ldir,
        inp.depth,
        trace::SHARDS,
        &inp.catalog,
        WalOptions::default(),
    )
    .map_err(err)?;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let queries = &inp.reads;
    let (read_ns, learn_us) = std::thread::scope(|s| {
        let learner = s.spawn(|| {
            let (mut j, t0) = (0u64, Instant::now());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                durable.learn(&obs[j as usize % obs.len()]).expect("learn");
                j += 1;
            }
            t0.elapsed().as_secs_f64() * 1e6 / j.max(1) as f64
        });
        use efd_core::engine::Recognize;
        let mut scratch = efd_core::VoteScratch::default();
        let until = Instant::now() + Duration::from_secs_f64((ctx.seconds * 0.05).max(0.1));
        let (mut n, t0) = (0u64, Instant::now());
        while Instant::now() < until {
            let _ = durable
                .recognize_into(&queries[n as usize % queries.len()], &mut scratch)
                .normalized();
            n += 1;
        }
        let ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (ns, learner.join().expect("learner thread"))
    });
    m.insert("sharded.recognize_ns", read_ns);
    m.insert("durable.learn_us", learn_us);
    Ok(())
}

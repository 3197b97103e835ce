//! Daemon runs: each workload's traffic against real `efd serve
//! --listen` instances, spread over several start-ups.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use crate::inputs::{Inputs, LearnStream};
use crate::wire::{self, Conn, Cursor, Daemon, Tally};
use crate::{
    leak, median, num, pct, Ctx, Metrics, DEPTH, LIGHT_RATE, PACED50_RATE, PACED80_RATE, ROUNDS,
    STREAM_RATE,
};

/// Daemon start-ups per round; `setup_s` is the median over all of them.
const STARTS_PER_ROUND: usize = 3;

/// Per-round values of each measured quantity.
type Series = BTreeMap<String, Vec<f64>>;

fn push(s: &mut Series, k: &str, v: f64) {
    s.entry(k.to_string()).or_default().push(v);
}

/// Run `rounds` daemon instances one after another. Each is started with
/// `args`, driven by `body`, reconciled against its own `/metrics`,
/// and stopped. Spreading a run over several instances makes its medians
/// robust to how one instance happened to land in memory. Each round
/// also starts and stops [`STARTS_PER_ROUND`]` - 1` idle instances first:
/// every spawn-to-PONG time is a `setup_s` sample.
fn rounds(
    ctx: &mut Ctx,
    rounds: usize,
    args: &[String],
    mut body: impl FnMut(&mut Ctx, &Daemon, &mut Tally, &mut Series, usize) -> Result<(), String>,
) -> Result<Series, String> {
    let mut s = Series::new();
    for k in 0..rounds {
        let log = ctx.work.join(format!("daemon-{k}.log"));
        for _ in 1..STARTS_PER_ROUND {
            let (d, setup) = Daemon::start(&ctx.bin, args, &log)?;
            push(&mut s, "setup_s", setup);
            d.stop()?;
        }
        let (d, setup) = Daemon::start(&ctx.bin, args, &log)?;
        push(&mut s, "setup_s", setup);
        let mut tally = Tally::default();
        tally.sent("ping");
        tally.check(b"PONG", "PONG");
        body(ctx, &d, &mut tally, &mut s, k)?;
        let scraped = wire::scrape(d.addr)?;
        ctx.reconcile.extend(wire::reconcile(&scraped, &tally));
        push(&mut s, "peak_rss_mib", d.peak_rss_mib());
        d.stop()?;
        ctx.tally.merge(tally);
    }
    let fields: Vec<String> = s
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": [{}]",
                v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    ctx.note("rounds", format!("{{{}}}", fields.join(", ")));
    Ok(s)
}

/// Median of every series.
fn medians(s: Series) -> Metrics {
    s.into_iter()
        .map(|(k, mut v)| (leak(k), median(&mut v)))
        .collect()
}

/// Closed loop on both connections at once (one on this thread, one on a
/// second thread); returns correct replies by command, session times,
/// and the elapsed time.
fn closed2(
    conns: &mut [Conn; 2],
    curs: &mut [Cursor<'_>; 2],
    dur: Duration,
    tally: &mut Tally,
) -> (BTreeMap<&'static str, u64>, Vec<(u16, u64)>, f64) {
    let [c0, c1] = conns;
    let [k0, k1] = curs;
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| wire::closed_loop(c1, k1, DEPTH, dur));
        let a = wire::closed_loop(c0, k0, DEPTH, dur);
        (a, h.join().expect("closed-loop thread"))
    });
    let elapsed = a.elapsed.max(b.elapsed).as_secs_f64();
    let mut ok = a.ok;
    for (k, v) in b.ok {
        *ok.entry(k).or_default() += v;
    }
    let mut sessions = a.sessions_ns;
    sessions.extend(b.sessions_ns);
    tally.merge(a.tally);
    tally.merge(b.tally);
    (ok, sessions, elapsed)
}

/// Index of the first stream session starting at or after `i` (any index
/// for pools without sessions).
fn session_start(inp: &Inputs, i: usize) -> usize {
    if inp.sessions.is_empty() {
        return i % inp.main.len();
    }
    let s = inp.sessions.partition_point(|r| r.start < i);
    inp.sessions.get(s).map_or(0, |r| r.start)
}

/// A read-only daemon loaded from the workload's EFDB, served with
/// `--backend efdb` or by the default snapshot backend as the inputs say.
pub fn run_read_only(
    ctx: &mut Ctx,
    inp: &Inputs,
    workload: &str,
    traced: bool,
) -> Result<Metrics, String> {
    let efdb = ctx.work.join("dict.efdb");
    std::fs::write(&efdb, &inp.efdb).map_err(|e| format!("{}: {e}", efdb.display()))?;
    let streaming = workload == "stream-paper";
    let backend: &[&str] = if inp.zero_copy {
        &["--backend", "efdb"]
    } else {
        &[]
    };
    let args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
        .iter()
        .chain(backend)
        .map(|s| s.to_string())
        .chain(["--load".to_string(), efdb.display().to_string()])
        .collect();
    let n = if traced { 1 } else { ROUNDS };
    // Shares of the run's seconds: the closed loop on both connections,
    // then each open-loop rate (recognize-1m) or the one-connection
    // session phase (stream-paper).
    let (closed, paced) = match (traced, streaming) {
        (true, _) => (0.25, 0.15),
        (false, true) => (0.7, 0.3),
        (false, false) => (0.4, 0.2),
    };
    let per = |share: f64| Duration::from_secs_f64(ctx.seconds * share / n as f64);
    let (closed, paced) = (per(closed), per(paced));
    let warm = if ctx.smoke {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let pool = inp.main.len();
    let s = rounds(ctx, n, &args, |ctx, d, tally, s, k| {
        let mut conns = [Conn::open(d.addr)?, Conn::open(d.addr)?];
        let a = session_start(inp, k * pool / n);
        let b = session_start(inp, a + pool / 2);
        let mut curs = [Cursor::new(&inp.main, a), Cursor::new(&inp.main, b)];
        if traced {
            let mut rtts = wire::ping_rtts(&mut conns[0], tally, ctx.secs(0.05));
            push(s, "net.ping_rtt_us", pct(&mut rtts, 50.0) / 1e3);
        }
        // Warm-up: caches, page faults and the CPU governor settle before
        // timing. A stream session cut off at the end of a phase carries
        // on in the next one (it is just not timed).
        closed2(&mut conns, &mut curs, warm, tally);
        let before = wire::scrape(d.addr)?;
        let (ok, sessions, elapsed) = closed2(&mut conns, &mut curs, closed, tally);
        let after = wire::scrape(d.addr)?;
        push(
            s,
            "server.request_mean_us",
            wire::request_mean_us(&before, &after),
        );
        if streaming {
            let samples = ok.get("push").copied().unwrap_or(0) as f64;
            push(s, "ops_per_s", samples / elapsed);
            push(s, "sessions", sessions.len() as f64);
            // Session time scales with the job's node count (a 32-node
            // session sends 8x the frames), and the two sizes make the
            // pooled distribution bimodal; each size gets its own.
            for nodes in [4u16, 32] {
                let mut t: Vec<u64> = sessions
                    .iter()
                    .filter(|x| x.0 == nodes)
                    .map(|x| x.1)
                    .collect();
                for p in [50.0, 99.0] {
                    push(s, &format!("session{nodes}_p{p}_us"), pct(&mut t, p) / 1e3);
                }
            }
            // The verdict latency a monitor waits for once a job's window
            // has closed: samples paced on one connection (sessions stay
            // on it), each VERDICT timed from the due time of the PUSH
            // that closed the window. STREAM -> VERDICT times above follow
            // how the scheduler splits 2 cores between two busy
            // connections and spread twice as much as throughput.
            let mut o = wire::open_loop(&mut conns[..1], &mut curs[0], STREAM_RATE, paced);
            push(s, "verdict_p50_us", pct(&mut o.verdict_ns, 50.0) / 1e3);
            push(s, "push_p50_us", pct(&mut o.latency_ns, 50.0) / 1e3);
            push(s, "client.lag_ms", pct(&mut o.lag_ns, 50.0) / 1e6);
            tally.merge(o.tally);
            return Ok(());
        }
        push(
            s,
            "ops_per_s",
            ok.get("recognize").copied().unwrap_or(0) as f64 / elapsed,
        );
        let rates: &[(&str, f64)] = if traced {
            &[("paced50", PACED50_RATE)]
        } else {
            &[
                ("light", LIGHT_RATE),
                ("paced50", PACED50_RATE),
                ("paced80", PACED80_RATE),
            ]
        };
        let mut lags = Vec::new();
        for &(name, rate) in rates {
            let mut o = wire::open_loop(&mut conns, &mut curs[0], rate, paced);
            push(
                s,
                &format!("{name}_p50_us"),
                pct(&mut o.latency_ns, 50.0) / 1e3,
            );
            push(
                s,
                &format!("{name}_p99_us"),
                pct(&mut o.latency_ns, 99.0) / 1e3,
            );
            lags.extend(o.lag_ns);
            tally.merge(o.tally);
        }
        push(s, "client.lag_ms", pct(&mut lags, 50.0) / 1e6);
        Ok(())
    })?;
    let mut m = medians(s);
    if streaming {
        m.insert("latency_p50_us", m["verdict_p50_us"]);
    } else if !traced {
        m.insert("latency_p50_us", m["light_p50_us"]);
    }
    Ok(m)
}

/// Seed a WAL directory whose recovery is the paper dictionary: learn
/// every paper run, then freeze a segment.
pub fn seed_wal(inp: &LearnStream, dir: &Path) -> Result<(), String> {
    let (d, _) = efd_serve::DurableDictionary::open(
        dir,
        inp.depth,
        8,
        &inp.catalog,
        efd_core::wal::WalOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    for obs in &inp.seed_obs {
        d.learn(obs).map_err(|e| e.to_string())?;
    }
    d.freeze().map_err(|e| e.to_string())
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    Ok(())
}

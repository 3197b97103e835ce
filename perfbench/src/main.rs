//! `efd-perfbench`: the repository benchmark.
//!
//! Runs the real `efd serve --listen` daemon as a child process and
//! drives it from this one process (at most 2 threads, 2 connections),
//! checking every reply against an in-process oracle. A traced run
//! (`--trace 1`) replays the same generated requests in-process through
//! the functions the daemon calls and reports per-layer costs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload recognize-1m --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is the result object; see
//! `perfbench/README.md` for workloads and metrics.

mod inputs;
mod layers;
mod runs;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use inputs::KeyspaceShape;
use wire::Tally;

/// Open-loop rates on `recognize-1m`, requests/s: about 50% and 80% of
/// the open-loop saturation (~37k/s: at 45k/s the backlog grows without
/// bound, at 35k/s p99 reaches milliseconds) measured on 2 cores when the
/// benchmark was defined. The pipelined closed loop reaches about twice
/// that, because it batches 32 requests per write. Fixed so runs compare
/// across commits.
const PACED50_RATE: f64 = 18_000.0;
const PACED80_RATE: f64 = 29_000.0;
/// Light open-loop rate on `recognize-1m` (~10% of open-loop saturation),
/// whose p50 is the gated `latency_p50_us`. At 50% load the queueing term
/// turns a slowdown of the shared host into a jump in latency: in one set
/// of ten runs the 18k/s p50 went from ~50 µs to 3.7 ms when the host
/// slowed by 40%.
const LIGHT_RATE: f64 = 4_000.0;
/// Open-loop PUSH rate on `stream-paper`, frames/s on one connection: a
/// light load (the closed loop acknowledges ~200k samples/s).
const STREAM_RATE: f64 = 10_000.0;
/// Requests per pipelined batch in closed loops.
const DEPTH: usize = 32;
/// Daemon instances driven per run; each metric is the median over them.
const ROUNDS: usize = 5;

/// Every workload this benchmark runs.
const WORKLOADS: [&str; 2] = ["recognize-1m", "stream-paper"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 41] = [
    ("protocol.read_frame_ns", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.render_ns", "ns"),
    ("protocol.write_frame_ns", "ns"),
    ("metrics.count_request_ns", "ns"),
    ("query.build_ns", "ns"),
    ("fingerprint.from_raw_ns", "ns"),
    ("efdb.probe_ns", "ns"),
    ("efdb.recognize_ns", "ns"),
    ("efdb.finish_ns", "ns"),
    ("efdb.hit_ratio", "ratio"),
    ("efdb.points_per_query", "count"),
    ("efdb.load_ms", "ms"),
    ("binfmt.write_ms", "ms"),
    ("drift.record_ns", "ns"),
    ("drift.record_contended_ns", "ns"),
    ("drift.snapshot_ns", "ns"),
    ("drift.snapshot_contended_ns", "ns"),
    ("metrics.observe_drift_ns", "ns"),
    ("metrics.observe_drift_contended_ns", "ns"),
    ("metrics.count_verdict_ns", "ns"),
    ("metrics.count_verdict_contended_ns", "ns"),
    ("online.open_ns", "ns"),
    ("online.push_ns", "ns"),
    ("online.verdict_ns", "ns"),
    ("durable.learn_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.syncs", "count"),
    ("wal.freeze_ms", "ms"),
    ("wal.freezes", "count"),
    ("wal.recover_ms", "ms"),
    ("sharded.recognize_ns", "ns"),
    ("server.request_mean_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("server.layer_coverage", "ratio"),
    ("client.lag_ms", "ms"),
    ("client.recognized_share", "ratio"),
    ("client.ambiguous_share", "ratio"),
    ("client.unknown_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let result = parse_args().and_then(|a| {
        if a.smoke {
            smoke()
        } else {
            bench(&a, false).map(|r| r.print())
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// Everything one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    detail: Vec<(String, String)>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn detail_line(&self) -> String {
        let fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn print(&self) {
        println!("{}", self.detail_line());
        println!("{}", self.result_line());
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Per-run context: the daemon binary and a scratch directory inside the
/// checkout.
struct Ctx {
    bin: PathBuf,
    work: PathBuf,
    seconds: f64,
    smoke: bool,
    detail: Vec<(String, String)>,
    tally: Tally,
    reconcile: Vec<String>,
}

impl Ctx {
    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    fn note(&mut self, k: &str, v: impl std::fmt::Display) {
        self.detail.push((k.to_string(), v.to_string()));
    }

    fn note_f(&mut self, k: &str, v: f64) {
        self.detail.push((k.to_string(), num(v)));
    }
}

/// Build the `efd` daemon from this checkout's sources (a no-op when it
/// is up to date) and return its path.
fn build_daemon() -> Result<PathBuf, String> {
    let status = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "efd-cli",
            "--bin",
            "efd",
        ])
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the efd daemon failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("efd");
    if !bin.exists() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

fn bench(a: &Args, smoke: bool) -> Result<Report, String> {
    if !Path::new("Cargo.toml").exists() || !Path::new("crates/serve").exists() {
        return Err("run from the root of an efd checkout".into());
    }
    let bin = build_daemon()?;
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", a.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut ctx = Ctx {
        bin,
        work: work.clone(),
        seconds: a.seconds,
        smoke,
        detail: Vec::new(),
        tally: Tally::default(),
        reconcile: Vec::new(),
    };
    ctx.note("workload", json_str(&a.workload));
    ctx.note("seed", a.seed);
    ctx.note("seconds", num(a.seconds));
    ctx.note("trace", a.trace);
    machine(&mut ctx);
    let out = run_workload(&mut ctx, a);
    let _ = std::fs::remove_dir_all(&work);
    let mut metrics = out?;
    let t = std::mem::take(&mut ctx.tally);
    let total: u64 = t.verdicts.values().sum();
    let share = |k: &str| t.verdicts.get(k).copied().unwrap_or(0) as f64 / total.max(1) as f64;
    let recognized = share("recognized");
    ctx.note(
        "verdict_mix",
        format!(
            "{{\"recognized\": {}, \"ambiguous\": {}, \"unknown\": {}, \"verdicts\": {total}}}",
            num(recognized),
            num(share("ambiguous")),
            num(share("unknown"))
        ),
    );
    if a.trace {
        metrics.insert("client.recognized_share", recognized);
        metrics.insert("client.ambiguous_share", share("ambiguous"));
        metrics.insert("client.unknown_share", share("unknown"));
    }
    let failed = t.failed + ctx.reconcile.len() as u64;
    let gate_ok = a.workload != "recognize-1m" || recognized >= 0.10;
    if !gate_ok {
        ctx.note("gate", json_str("recognized share below 10%"));
    }
    let list = |v: &[String]| {
        format!(
            "[{}]",
            v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
        )
    };
    ctx.note("mismatches", list(&t.samples));
    let reconcile = list(&ctx.reconcile);
    ctx.note("reconcile_mismatches", reconcile);
    ctx.note(
        "failed_share",
        num(failed as f64 / t.attempted.max(1) as f64),
    );
    let names: &[(&'static str, &'static str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = BTreeMap::new();
    for &(name, unit) in names {
        let v = metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name} was not measured"))?;
        out.insert(name, (v, unit));
    }
    let report = Report {
        attempted: t.attempted.max(1),
        failed,
        correct: failed == 0 && gate_ok,
        metrics: out,
        detail: ctx.detail,
    };
    let dir = Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_ok() {
        let name = format!(
            "{}-seed{}-trace{}.json",
            a.workload,
            a.seed,
            u8::from(a.trace)
        );
        let _ = std::fs::write(
            dir.join(name),
            format!("{}\n{}\n", report.detail_line(), report.result_line()),
        );
    }
    Ok(report)
}

/// Machine and build facts recorded with every result.
fn machine(ctx: &mut Ctx) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = |idx: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        ))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
    };
    // Only this checkout's own history: git would otherwise report the
    // commit of any repository enclosing a plain source tree.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    ctx.note(
        "machine",
        format!(
            "{{\"nproc\": {nproc}, \"l2\": {}, \"l3\": {}, \"git_commit\": {}}}",
            json_str(&cache(2)),
            json_str(&cache(3)),
            json_str(&commit)
        ),
    );
}

type Metrics = BTreeMap<&'static str, f64>;

fn run_workload(ctx: &mut Ctx, a: &Args) -> Result<Metrics, String> {
    let t = Instant::now();
    let inp = match a.workload.as_str() {
        "recognize-1m" => {
            let shape = if ctx.smoke {
                KeyspaceShape::SMOKE
            } else {
                KeyspaceShape::FULL
            };
            inputs::recognize_1m(a.seed, &shape, Path::new(".bench_cache"))?
        }
        _ => inputs::stream_paper(a.seed, if ctx.smoke { 24 } else { usize::MAX }),
    };
    ctx.note_f("prepare_s", t.elapsed().as_secs_f64());
    ctx.note(
        "working_set",
        format!(
            "{{\"keys\": {}, \"labels\": {}, \"efdb_bytes\": {}, \"requests_in_pool\": {}}}",
            inp.parts.entries.len(),
            inp.parts.labels.len(),
            inp.efdb.len(),
            inp.main.len()
        ),
    );
    let mut m = runs::run_read_only(ctx, &inp, &a.workload, a.trace)?;
    if a.trace {
        let layers = layers::layers(ctx, &inp, &a.workload, a.seed)?;
        let server_ns = m["server.request_mean_us"] * 1e3;
        let coverage = layers["path_ns_per_request"] / server_ns;
        m.extend(layers);
        m.insert(
            "server.layer_coverage",
            if server_ns > 0.0 { coverage } else { 0.0 },
        );
    }
    Ok(m)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2]
}

/// Nearest-rank percentile of `v` (sorted in place), in the samples' unit.
fn pct(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let i = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[i.clamp(1, v.len()) - 1] as f64
}

/// Metric names built at run time live for the whole run.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Small-size run of every workload, traced and untraced, checking that
/// each result carries every metric `BENCHMARK.json` names.
fn smoke() -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared: Vec<&str> = spec
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    for w in &WORKLOADS {
        if !declared.contains(w) {
            return Err(format!("BENCHMARK.json does not declare workload {w}"));
        }
    }
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        if !declared.contains(name) {
            return Err(format!("BENCHMARK.json does not declare metric {name}"));
        }
    }
    for w in WORKLOADS {
        for trace in [false, true] {
            let a = Args {
                workload: w.to_string(),
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let r = bench(&a, true)?;
            let line = r.result_line();
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in expected {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .ok_or_else(|| format!("{w}: {name} missing"))?;
                let rest = &line[at + key.len()..];
                let value = rest.split(',').next().unwrap_or("");
                if value.parse::<f64>().is_err() {
                    return Err(format!("{w}: {name} = {value:?} is not a number"));
                }
                if !rest.contains(&format!("\"unit\": \"{unit}\"")) {
                    return Err(format!("{w}: {name} lacks unit {unit}"));
                }
            }
            println!(
                "smoke {w} trace={}: correct={} attempted={} failed={}",
                u8::from(trace),
                r.correct,
                r.attempted,
                r.failed
            );
            if !r.correct {
                return Err(format!("{w}: smoke run not correct: {}", r.detail_line()));
            }
        }
    }
    println!("smoke: every workload ran and every declared metric was reported");
    Ok(())
}

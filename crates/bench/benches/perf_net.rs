//! Network daemon throughput over loopback: an in-process
//! [`efd_serve::net::Server`] over the synthetic keyspace
//! ([`efd_serve::net::loadgen::synth_keyspace_dict`], the one `efd dump
//! --synth-keys` writes), driven by the pipelined
//! [`efd_serve::net::loadgen`] client.
//!
//! This is the socket-inclusive companion to `perf_serving`: every
//! verdict here pays frame decode, catalog lookup, recognition, frame
//! encode, and a loopback round trip. The acceptance claim behind
//! `BENCH_8.json` — ≥ 50 000 verdicts/s sustained against a 1M-key
//! EFDB — is the CLI-level version of this bench (`efd serve --listen`
//! driven by `efd loadgen --keyspace`); this target tracks the same
//! path in-process so regressions show up in `cargo bench` without a
//! daemon orchestration step.
//!
//! Knobs: `EFD_NET_KEYS` (default 100000), `EFD_NET_SECS` per row
//! (default 2).

use std::sync::Arc;

use efd_serve::net::loadgen::{run, synth_keyspace_dict, synth_keyspace_payloads, LoadgenConfig};
use efd_serve::net::{Engine, Server, ServerConfig};
use efd_serve::Snapshot;
use efd_telemetry::catalog::small_catalog;
use efd_util::TextTable;

const METRIC_NAME: &str = "nr_mapped_vmstat";

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn main() {
    let keys = env_usize("EFD_NET_KEYS", 100_000);
    let secs = env_usize("EFD_NET_SECS", 2);

    eprintln!("building {keys}-key synthetic dictionary ...");
    let catalog = small_catalog();
    let metric = catalog.id(METRIC_NAME).expect("metric in the small catalog");
    let dict = synth_keyspace_dict(keys, metric);
    let engine = Engine::fixed(Arc::new(Snapshot::freeze(&dict, 64)), dict.len(), "snapshot");
    let server = Server::start("127.0.0.1:0", ServerConfig::new(catalog), engine)
        .expect("daemon starts");
    let addr = server.local_addr().to_string();
    let payloads = synth_keyspace_payloads(METRIC_NAME, keys, 512);

    let mut table = TextTable::new(vec![
        "conns", "pipeline", "verdicts/s", "p50 µs", "p99 µs", "errors",
    ])
    .with_title(format!("Daemon throughput over loopback ({keys} keys)"));
    for (conns, pipeline) in [(1, 1), (1, 32), (4, 32), (8, 32)] {
        let mut lg = LoadgenConfig::new(addr.clone());
        lg.connections = conns;
        lg.pipeline = pipeline;
        lg.duration = std::time::Duration::from_secs(secs as u64);
        lg.payloads = payloads.clone();
        let report = run(&lg).expect("loadgen run");
        table.add_row(vec![
            conns.to_string(),
            pipeline.to_string(),
            format!("{:.0}", report.qps),
            format!("{:.0}", report.latency.p50 * 1e6),
            format!("{:.0}", report.latency.p99 * 1e6),
            report.errors.to_string(),
        ]);
    }
    server.shutdown();
    server.join();
    println!("{}", table.render());
}

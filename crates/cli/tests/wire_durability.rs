//! LEARN durability over the wire: a `--wal` daemon SIGKILLed in the
//! middle of a LEARN stream keeps every observation it answered
//! `LEARNED` for.
//!
//! Each test spawns `efd serve --listen 127.0.0.1:0 --wal <dir>`, reads
//! the bound address from its `listening:` line, streams LEARN frames
//! over one connection, pipelines a burst of further LEARNs and kills
//! the process (`Child::kill`, SIGKILL on Unix) before reading their
//! answers. Any `LEARNED` read after that still counts as acknowledged.
//! A second daemon then recovers the directory, and every acknowledged
//! observation must be recognized with its own application.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use efd_eval::paper::HEADLINE_METRIC;
use efd_serve::net::protocol::{write_frame, FrameReader};

/// LEARNs answered one at a time before the burst.
const ACKED_FIRST: usize = 120;
/// LEARNs pipelined right before the kill, answers unread.
const BURST: usize = 64;

/// A daemon child process, killed and reaped on drop so a failing test
/// leaves nothing running.
struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stdout so a later line never meets a closed
    /// pipe; ends when the daemon exits.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `efd serve --listen 127.0.0.1:0 --wal <dir> <extra..>` and
    /// wait for its `listening:` line.
    fn start(dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(["serve", "--listen", "127.0.0.1:0", "--wal"])
            .arg(dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn efd serve");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|line| {
                let rest = line.strip_prefix("listening:")?;
                rest.split_whitespace().next().map(str::to_string)
            })
            .expect("daemon printed no listening: line");
        let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        Daemon { child, addr, drain }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection speaking the frame protocol.
struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        // A frame is two writes (length, payload); without NODELAY each
        // round trip waits out the peer's delayed ACK.
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Client {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, line: &str) {
        write_frame(&mut self.stream, line.as_bytes()).expect("write frame");
    }

    /// The next response, or `None` once the daemon is gone.
    fn recv(&mut self) -> Option<String> {
        match self.reader.read_frame(&mut self.stream) {
            Ok(Some(frame)) => Some(String::from_utf8_lossy(frame).into_owned()),
            _ => None,
        }
    }
}

/// Observation `i`: its own application on two nodes, with means that
/// stay distinct keys at rounding depth 6.
fn learn_line(i: usize) -> String {
    let mean = 100_000.0 + i as f64;
    format!("LEARN app{i} X {HEADLINE_METRIC} 60 120 {mean} {mean}")
}

fn recognize_line(i: usize) -> String {
    let mean = 100_000.0 + i as f64;
    format!("RECOGNIZE {HEADLINE_METRIC} 60 120 {mean} {mean}")
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("efd-wire-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn acknowledged_learns_survive_sigkill(sync: &str) {
    let dir = wal_dir(sync);
    let mut acked = Vec::new();
    {
        let mut daemon = Daemon::start(&dir, &["--depth", "6", "--wal-sync", sync]);
        let mut client = Client::connect(&daemon.addr);
        for i in 0..ACKED_FIRST {
            client.send(&learn_line(i));
            let reply = client.recv().expect("daemon answers before the kill");
            assert!(reply.starts_with("LEARNED "), "LEARN #{i}: {reply}");
            acked.push(i);
        }
        for i in ACKED_FIRST..ACKED_FIRST + BURST {
            client.send(&learn_line(i));
        }
        daemon.child.kill().expect("SIGKILL the daemon");
        daemon.child.wait().expect("reap the daemon");
        // Answers the daemon wrote before it died are acknowledgements.
        for i in ACKED_FIRST..ACKED_FIRST + BURST {
            match client.recv() {
                Some(reply) if reply.starts_with("LEARNED ") => acked.push(i),
                _ => break,
            }
        }
    }

    let daemon = Daemon::start(&dir, &[]);
    let mut client = Client::connect(&daemon.addr);
    for &i in &acked {
        client.send(&recognize_line(i));
        let reply = client.recv().expect("recovered daemon answers");
        let want = format!(" recognized app{i}");
        assert!(
            reply.starts_with("OK ") && reply.ends_with(&want),
            "--wal-sync {sync}: acknowledged LEARN #{i} lost after SIGKILL: {reply}"
        );
    }
    drop(client);
    drop(daemon);
    std::fs::remove_dir_all(&dir).expect("remove the WAL directory");
}

#[test]
fn acknowledged_learns_survive_sigkill_with_batch_sync() {
    acknowledged_learns_survive_sigkill("batch");
}

#[test]
fn acknowledged_learns_survive_sigkill_with_no_sync() {
    acknowledged_learns_survive_sigkill("none");
}

//! Adversarial wire-protocol tests: torn and truncated frames,
//! oversized length prefixes, malformed payloads, bad command
//! sequences, abrupt mid-stream disconnects, and a slow-loris idle
//! client. The daemon's contract under all of them: a structured
//! `ERR <kind> <message>` response or a clean connection drop, the
//! matching `efd_protocol_errors_total{kind=...}` increment — and
//! never a panic, a leaked connection thread, or a hung test.
//!
//! Recovery is proven after each bad peer: `efd_active_connections`
//! must return to 0 — the bad connection's thread ended instead of
//! hanging on — and a fresh connection must still answer `PING`.

mod common;

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use common::*;
use efd_serve::net::protocol::write_frame;
use efd_serve::net::{Server, MAX_FRAME};

/// A daemon over a one-app dictionary.
fn ft_server(tweak: impl FnOnce(&mut efd_serve::net::ServerConfig)) -> Server {
    let dict = dict_with(&[("ft", 6000.0)]);
    start_server(snapshot_engine(&dict), tweak)
}

/// Count of one error kind as currently exported by the daemon.
fn error_count(server: &Server, kind: &str) -> u64 {
    let needle = format!("efd_protocol_errors_total{{kind=\"{kind}\"}} ");
    server
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix(&needle).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Wait until no connection thread is left running, then prove the
/// daemon sane by completing a well-formed request on a fresh
/// connection.
fn assert_daemon_healthy(server: &Server) {
    wait_until("every connection thread to end", || {
        server.metrics().active_connections.get() == 0
    });
    let mut probe = Client::connect(server.local_addr());
    assert_eq!(probe.request("PING"), "PONG");
}

#[test]
fn torn_length_prefix_is_counted_and_dropped_cleanly() {
    let server = ft_server(|_| {});
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&[42u8, 0]).expect("2 of 4 prefix bytes");
    drop(stream); // close mid-prefix
    wait_until("torn-prefix count", || error_count(&server, "torn") == 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn truncated_payload_is_counted_and_dropped_cleanly() {
    let server = ft_server(|_| {});
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Promise 100 payload bytes, deliver 4, vanish.
    stream.write_all(&100u32.to_le_bytes()).expect("prefix");
    stream.write_all(b"PING").expect("partial payload");
    drop(stream);
    wait_until("torn-payload count", || error_count(&server, "torn") == 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_prefix_gets_a_structured_refusal_then_the_connection_drops() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    client
        .stream
        .write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("oversized prefix");
    let resp = client.recv_or_close().expect("structured refusal before the drop");
    assert!(
        resp.starts_with("ERR oversized"),
        "expected ERR oversized, got {resp:?}"
    );
    assert!(client.recv_or_close().is_none(), "connection must drop after refusal");
    assert_eq!(error_count(&server, "oversized"), 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn zero_length_frame_gets_a_structured_refusal_then_the_connection_drops() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    client.stream.write_all(&0u32.to_le_bytes()).expect("empty prefix");
    let resp = client.recv_or_close().expect("structured refusal before the drop");
    assert!(resp.starts_with("ERR empty"), "got {resp:?}");
    assert!(client.recv_or_close().is_none(), "connection must drop after refusal");
    assert_eq!(error_count(&server, "empty"), 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_payloads_answer_err_and_keep_the_connection_alive() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let cases: Vec<String> = vec![
        "NOPE".into(),
        "PING trailing-garbage".into(),
        "RECOGNIZE".into(),                       // missing everything
        format!("RECOGNIZE {METRIC} 120 60 1.0"), // inverted window
        format!("RECOGNIZE {METRIC} 60 120"),     // no means
        format!("RECOGNIZE {METRIC} 60 120 NaN"),
        "STREAM".into(),
        format!("STREAM {METRIC} 0 60 120"),    // zero nodes
        format!("STREAM {METRIC} 9999 60 120"), // above the node cap
        "PUSH 1 2".into(),
        "PUSH 1 2 inf".into(),
        "LEARN app X m 60 120".into(), // no means
    ];
    for bad in &cases {
        let resp = client.request(bad);
        assert!(resp.starts_with("ERR malformed"), "{bad:?} answered {resp:?}");
        // Same connection keeps working after every rejection.
        assert_eq!(client.request("PING"), "PONG");
    }
    // A frame that is not UTF-8 at all.
    client.stream.write_all(&3u32.to_le_bytes()).expect("prefix");
    client.stream.write_all(&[0xFF, 0xFE, 0xFD]).expect("payload");
    let resp = client.recv();
    assert!(resp.starts_with("ERR malformed"), "got {resp:?}");
    assert_eq!(client.request("PING"), "PONG");
    assert_eq!(error_count(&server, "malformed"), cases.len() as u64 + 1);
    server.shutdown();
    server.join();
}

#[test]
fn unknown_metric_and_bad_sequences_are_structured_errors() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let resp = client.request("RECOGNIZE not_a_metric 60 120 1.0 2.0");
    assert!(resp.starts_with("ERR unknown-metric"), "got {resp:?}");
    // PUSH and FINISH before STREAM.
    assert!(client.request("PUSH 0 0 1.0").starts_with("ERR bad-state"));
    assert!(client.request("FINISH").starts_with("ERR bad-state"));
    // Double STREAM on one connection.
    assert!(client
        .request(&format!("STREAM {METRIC} 1 60 120"))
        .starts_with("OPENED 1 "));
    assert!(client
        .request(&format!("STREAM {METRIC} 1 60 120"))
        .starts_with("ERR bad-state"));
    // LEARN against an immutable snapshot daemon.
    let resp = client.request(&format!("LEARN ft X {METRIC} 60 120 1.0"));
    assert!(resp.starts_with("ERR read-only"), "got {resp:?}");
    assert_eq!(error_count(&server, "bad-state"), 3);
    assert_eq!(error_count(&server, "unknown-metric"), 1);
    assert_eq!(error_count(&server, "read-only"), 1);
    drop(client); // its thread must end before the probe
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn mid_stream_disconnect_frees_the_worker_without_a_verdict() {
    let server = ft_server(|_| {});
    {
        let mut client = Client::connect(server.local_addr());
        assert!(client
            .request(&format!("STREAM {METRIC} 2 60 120"))
            .starts_with("OPENED "));
        for t in 60..70u32 {
            assert!(client.request(&format!("PUSH 0 {t} 6005")).starts_with("ACK "));
        }
        // Vanish with the session open and samples buffered.
    }
    // The abandoned session's thread must end without a verdict.
    assert_daemon_healthy(&server);
    assert!(server.metrics_text().contains("efd_verdicts_total{verdict=\"recognized\"} 0"));
    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_client_is_dropped_at_the_idle_timeout() {
    let server = ft_server(|cfg| cfg.idle_timeout = Duration::from_millis(300));
    let mut client = Client::connect(server.local_addr());
    // Dribble two prefix bytes, then go quiet mid-frame.
    client.stream.write_all(&[9u8, 0]).expect("dribble");
    wait_until("idle-timeout count", || {
        error_count(&server, "idle-timeout") == 1
    });
    assert!(
        client.recv_or_close().is_none(),
        "daemon must close the idle connection"
    );
    // The dropped connection's thread ended, and an honest client that
    // keeps talking is NOT idle-dropped.
    wait_until("the idle connection's thread to end", || {
        server.metrics().active_connections.get() == 0
    });
    let mut honest = Client::connect(server.local_addr());
    for _ in 0..6 {
        assert_eq!(honest.request("PING"), "PONG");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(error_count(&server, "idle-timeout"), 1);
    server.shutdown();
    server.join();
}

#[test]
fn quiet_connection_with_no_bytes_is_also_idle_dropped() {
    // Idle accounting must cover the pre-sniff window too (a peer that
    // connects and never sends a byte).
    let server = ft_server(|cfg| cfg.idle_timeout = Duration::from_millis(300));
    let mut client = Client::connect(server.local_addr());
    wait_until("pre-sniff idle-timeout", || {
        error_count(&server, "idle-timeout") == 1
    });
    assert!(client.recv_or_close().is_none());
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

/// `lines` as one contiguous byte string of frames — a pipelined batch.
fn batch(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        write_frame(&mut out, l.as_bytes()).expect("write to Vec");
    }
    out
}

/// Every reply until the daemon closes the connection.
fn replies_until_close(client: &mut Client) -> Vec<String> {
    std::iter::from_fn(|| client.recv_or_close()).collect()
}

#[test]
fn pipelined_batch_is_answered_in_order_like_one_request_at_a_time() {
    let server = ft_server(|_| {});
    let means = [
        [6000.0, 6000.0],
        [111.0, 222.0],
        [6000.0, 6004.0],
        [9.5, 9.5],
    ];
    let lines: Vec<String> = (0..64)
        .map(|i| match i % 3 {
            0 => "PING".to_string(),
            _ => recognize_line(&means[i % means.len()]),
        })
        .collect();
    // One request at a time first, on its own connection.
    let want: Vec<String> = {
        let mut c = Client::connect(server.local_addr());
        lines.iter().map(|l| c.request(l)).collect()
    };
    let mut client = Client::connect(server.local_addr());
    client.stream.write_all(&batch(&lines)).expect("one write");
    client.stream.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(replies_until_close(&mut client), want);
    // Every reply carried in a batched flush is still timed.
    wait_until("128 request durations", || {
        server
            .metrics_text()
            .contains("efd_request_duration_seconds_count 128\n")
    });
    server.shutdown();
    server.join();
}

#[test]
fn oversized_prefix_after_a_pipelined_batch_is_refused_after_its_replies() {
    let server = ft_server(|_| {});
    let mut bytes = batch(&vec!["PING".to_string(); 5]);
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    let mut client = Client::connect(server.local_addr());
    client.stream.write_all(&bytes).expect("one write");
    let got = replies_until_close(&mut client);
    assert_eq!(got.len(), 6, "{got:?}");
    assert!(got[..5].iter().all(|r| r == "PONG"), "{got:?}");
    assert!(got[5].starts_with("ERR oversized"), "{got:?}");
    assert_eq!(error_count(&server, "oversized"), 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn torn_tail_after_a_pipelined_batch_is_dropped_after_its_replies() {
    let server = ft_server(|_| {});
    let mut bytes = batch(&vec!["PING".to_string(); 5]);
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(b"PING"); // 4 of 100 promised payload bytes
    let mut client = Client::connect(server.local_addr());
    client.stream.write_all(&bytes).expect("one write");
    client
        .stream
        .shutdown(Shutdown::Write)
        .expect("close mid-frame");
    assert_eq!(replies_until_close(&mut client), vec!["PONG"; 5]);
    wait_until("torn count", || error_count(&server, "torn") == 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_mid_batch_answers_what_precedes_it_then_stops_the_daemon() {
    let server = ft_server(|_| {});
    let ok = recognize_line(&[6000.0, 6000.0]);
    let lines = ["PING", &ok, "SHUTDOWN", "PING", &ok].map(str::to_string);
    let mut client = Client::connect(server.local_addr());
    client.stream.write_all(&batch(&lines)).expect("one write");
    let got = replies_until_close(&mut client);
    assert_eq!(got, ["PONG", "OK 1 2 2 recognized ft", "BYE"]);
    wait_until("daemon stops", || !server.running());
    // The closing flush times the replies it carried.
    wait_until("3 request durations", || {
        server
            .metrics_text()
            .contains("efd_request_duration_seconds_count 3\n")
    });
    server.join();
}

//! Fairness and admission: every connection gets its own thread, so
//! long-lived and idle connections never starve a newcomer, and
//! admission is bounded by [`MAX_CONNS`] with a structured `ERR busy`
//! refusal past it.
//!
//! This is its own test binary because it holds hundreds of sockets —
//! both ends of each, in one process — and must not share that
//! descriptor budget with the other daemon suites.

mod common;

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::*;
use efd_serve::net::protocol::render_answer;
use efd_serve::net::{Server, MAX_CONNS};

/// The daemon's read tick: how often a connection thread looks up from
/// a quiet socket to check for shutdown and idleness.
const READ_TICK: Duration = Duration::from_millis(100);

/// A daemon over the harness corpus with the default 30 s idle timeout.
fn corpus_server() -> Server {
    start_server(snapshot_engine(&dict_with(&corpus())), |_| {})
}

fn active(server: &Server) -> i64 {
    server.metrics().active_connections.get()
}

/// `n` connected sockets that never send a byte.
fn idle_sockets(server: &Server, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect idle socket"))
        .collect()
}

#[test]
fn eight_concurrent_clients_each_complete_fifty_round_trips() {
    const CLIENTS: usize = 8;
    let dict = dict_with(&corpus());
    let expected: Vec<(String, String)> = query_mix()
        .iter()
        .map(|means| {
            let rec = dict.recognize(&query(means)).normalized();
            (recognize_line(means), render_answer("OK", 1, &rec))
        })
        .collect();
    let server = corpus_server();
    let addr = server.local_addr();
    // Every client keeps its connection open until all of them are
    // done, so a daemon that serves connections one after another
    // (rather than side by side) cannot pass. A countdown with a
    // deadline, not a `Barrier`: a starved client then fails the test
    // instead of hanging it.
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (expected, done) = (&expected, &done);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..50 {
                    let (line, want) = &expected[(i + c) % expected.len()];
                    assert_eq!(&client.request(line), want, "client {c}, request {i}");
                }
                done.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(15);
                while done.load(Ordering::SeqCst) < CLIENTS {
                    assert!(Instant::now() < deadline, "not every client was served");
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
    });
    server.shutdown();
    assert_eq!(server.join().requests, (CLIENTS * 50) as u64);
}

#[test]
fn a_fresh_client_is_answered_while_eight_idle_sockets_are_held() {
    let server = corpus_server();
    let _idle = idle_sockets(&server, 8);
    wait_until("eight accepted connections", || {
        server.metrics().connections_total.get() == 8
    });
    let t = Instant::now();
    let mut fresh = Client::connect(server.local_addr());
    assert_eq!(fresh.request("PING"), "PONG");
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "PING behind eight idle sockets took {:?}",
        t.elapsed()
    );
    server.shutdown();
    server.join();
}

#[test]
fn connections_past_the_cap_are_refused_busy_until_one_closes() {
    let server = corpus_server();
    let mut held = idle_sockets(&server, MAX_CONNS);
    wait_until("every held socket admitted", || {
        active(&server) == MAX_CONNS as i64
    });

    let mut refused = Client::connect(server.local_addr());
    let reply = refused.recv_or_close().expect("a busy refusal before the drop");
    assert!(reply.starts_with("ERR busy "), "got {reply:?}");
    assert!(refused.recv_or_close().is_none(), "refused socket must drop");
    assert!(server
        .metrics_text()
        .contains("efd_protocol_errors_total{kind=\"busy\"} 1\n"));
    assert_eq!(active(&server), MAX_CONNS as i64);

    held.pop();
    wait_until("the closed socket's thread to end", || {
        active(&server) == MAX_CONNS as i64 - 1
    });
    let mut next = Client::connect(server.local_addr());
    assert_eq!(next.request("PING"), "PONG");
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_and_join_return_promptly_with_idle_connections_open() {
    let server = corpus_server();
    let _idle = idle_sockets(&server, 4);
    let mut talking = Client::connect(server.local_addr());
    assert_eq!(talking.request("PING"), "PONG");
    wait_until("five admitted connections", || active(&server) == 5);

    let t = Instant::now();
    server.shutdown();
    let summary = server.join();
    assert!(
        t.elapsed() < 5 * READ_TICK,
        "shutdown + join took {:?} with idle connections open",
        t.elapsed()
    );
    assert_eq!(summary.connections, 5);
    // Every connection thread ended, and each closed its socket.
    assert!(talking.recv_or_close().is_none());
}

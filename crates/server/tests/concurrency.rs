//! Concurrency tests: many clients hammering one server must lose
//! nothing, duplicate nothing, and keep per-connection reply order —
//! and concurrent connections must actually share engine batches (the
//! whole point of cross-connection micro-batching).

use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start() -> Server {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 2;
    Server::start(cfg).expect("server starts")
}

fn tcp_addr(server: &Server) -> std::net::SocketAddr {
    match server.bound() {
        BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    }
}

/// Pull the planner's `deduped` counter out of a `stats` reply.
fn planner_deduped(addr: std::net::SocketAddr) -> u64 {
    let mut tx = TcpStream::connect(addr).expect("connects");
    let mut rx = BufReader::new(tx.try_clone().expect("clones"));
    writeln!(tx, r#"{{"op":"stats"}}"#).expect("writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("reply");
    let v = facile_server::json::parse(line.trim_end()).expect("parses");
    v.get("stats")
        .and_then(|s| s.get("engine"))
        .and_then(|e| e.get("planner"))
        .and_then(|p| p.get("deduped"))
        .and_then(|d| d.as_f64())
        .expect("stats.engine.planner.deduped") as u64
}

#[test]
fn no_lost_or_duplicated_replies_and_order_is_preserved() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 25;
    // Correctness must not depend on how requests happen to be batched.
    let server = start();
    let addr = tcp_addr(&server);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tx = TcpStream::connect(addr).expect("connects");
                let mut rx = BufReader::new(tx.try_clone().expect("clones"));
                barrier.wait();
                // Pipeline: write everything, then read everything. The
                // ids encode (thread, seq) so misrouted or reordered
                // replies are unmistakable.
                for s in 0..REQUESTS {
                    // Rotate blocks so connections overlap on bytes.
                    let block = ["4801c8", "4801c8480fafd0", "90", "49ffcb75fb"][s % 4];
                    writeln!(tx, r#"{{"op":"predict","block":"{block}","id":"{t}-{s}"}}"#)
                        .expect("request writes");
                }
                let mut got = Vec::with_capacity(REQUESTS);
                for s in 0..REQUESTS {
                    let mut line = String::new();
                    assert!(
                        rx.read_line(&mut line).expect("reply arrives") > 0,
                        "client {t} hit EOF after {s} replies"
                    );
                    let v = facile_server::json::parse(line.trim_end()).expect("reply parses");
                    assert_eq!(
                        v.get("ok").and_then(|o| o.as_bool()),
                        Some(true),
                        "client {t} reply {s}: {line}"
                    );
                    let id = v
                        .get("id")
                        .and_then(|i| i.as_str())
                        .expect("id echoed")
                        .to_string();
                    assert_eq!(id, format!("{t}-{s}"), "client {t}: reply out of order");
                    got.push(id);
                }
                got
            })
        })
        .collect();

    let mut all: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(all.len(), CLIENTS * REQUESTS, "a reply was lost");
    all.sort();
    all.dedup();
    assert_eq!(all.len(), CLIENTS * REQUESTS, "a reply was duplicated");

    let c = server.counters();
    assert_eq!(
        c.rows.load(Ordering::Relaxed),
        (CLIENTS * REQUESTS) as u64,
        "every request yields exactly one row"
    );
    server.stop();
}

#[test]
fn concurrent_connections_share_batches_and_dedup() {
    const CLIENTS: usize = 6;
    const HOLD_BLOCKS: u32 = 4_000;
    // A seventh connection holds the engine with a large cold batch, so
    // simultaneous single-item requests from the other connections queue
    // behind its round and land in one engine batch, the next round.
    let server = start();
    let addr = tcp_addr(&server);
    let before = planner_deduped(addr);
    let hold = std::thread::spawn(move || {
        let mut tx = TcpStream::connect(addr).expect("connects");
        let mut rx = BufReader::new(tx.try_clone().expect("clones"));
        let blocks: Vec<String> = (0..HOLD_BLOCKS).map(|i| format!("\"b8{i:08x}\"")).collect();
        writeln!(
            tx,
            r#"{{"op":"batch","blocks":[{}],"uarch":"all"}}"#,
            blocks.join(",")
        )
        .expect("writes");
        let mut line = String::new();
        rx.read_line(&mut line).expect("reply");
    });
    while server.counters().batches.load(Ordering::Relaxed) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tx = TcpStream::connect(addr).expect("connects");
                let mut rx = BufReader::new(tx.try_clone().expect("clones"));
                barrier.wait();
                // Every connection asks for the *same* block: any two
                // jobs gathered into one batch collapse in the planner.
                writeln!(
                    tx,
                    r#"{{"op":"predict","block":"4801c8480fafd0","id":{t}}}"#
                )
                .expect("writes");
                let mut line = String::new();
                rx.read_line(&mut line).expect("reply");
                assert!(line.contains(r#""throughput":3.0000"#), "{line}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    hold.join().expect("holding client thread");

    let deduped = planner_deduped(addr) - before;
    assert!(
        deduped > 0,
        "identical blocks from concurrent connections never shared a batch"
    );
    let c = server.counters();
    let batches = c.batches.load(Ordering::Relaxed);
    let items = c.batched_items.load(Ordering::Relaxed);
    assert!(
        batches < items,
        "cross-connection gathering never happened: {batches} batches for {items} items"
    );
    server.stop();
}

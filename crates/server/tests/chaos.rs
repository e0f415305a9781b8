//! Chaos suite: deterministic fault injection (`facile-faults`, compiled
//! in via the `fault-injection` dev-dependency feature) driving the
//! server's containment layers. Under injected predictor panics, slow
//! predictions, dropped connections, and a panicking batch round, the
//! invariants are:
//!
//! * every request gets **exactly one** reply;
//! * rows for non-faulted items are **byte-identical** to a fault-free
//!   run;
//! * the server process never dies, and a clean shutdown still drains;
//! * post-chaos counters stay consistent.
//!
//! Fault state is process-global, so every test serializes on [`GATE`]
//! and clears the configuration when done.

use facile_server::faults;
use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests (fault configuration is process-global) and arms
/// the quiet panic hook so injected panics don't spam test output.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    assert!(faults::compiled(), "chaos tests need the injection feature");
    faults::install_quiet_panic_hook();
    let g = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults::clear();
    g
}

fn start(cfg_tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 2;
    cfg_tweak(&mut cfg);
    Server::start(cfg).expect("server starts")
}

fn tcp_addr(server: &Server) -> std::net::SocketAddr {
    match server.bound() {
        BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    }
}

const BLOCKS: [&str; 4] = ["4801c8", "4801c8480fafd0", "90", "49ffcb75fb"];

/// The concurrency workload: 8 pipelined clients × 25 requests over the
/// rotating block set, returning every reply line keyed by request id.
fn run_workload(addr: std::net::SocketAddr) -> BTreeMap<String, String> {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 25;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tx = TcpStream::connect(addr).expect("connects");
                let mut rx = BufReader::new(tx.try_clone().expect("clones"));
                barrier.wait();
                for s in 0..REQUESTS {
                    let block = BLOCKS[s % BLOCKS.len()];
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
                    got.push((format!("{t}-{s}"), line.trim_end().to_string()));
                }
                got
            })
        })
        .collect();
    let mut replies = BTreeMap::new();
    for h in handles {
        for (id, line) in h.join().expect("client thread") {
            let v = facile_server::json::parse(&line).expect("reply parses");
            assert_eq!(
                v.get("id").and_then(|i| i.as_str()),
                Some(id.as_str()),
                "reply misrouted: {line}"
            );
            assert!(replies.insert(id, line).is_none(), "a reply was duplicated");
        }
    }
    assert_eq!(replies.len(), CLIENTS * REQUESTS, "a reply was lost");
    replies
}

/// A rejected request's top-level error code (`None` for `ok:true`).
fn reply_err_code(line: &str) -> Option<String> {
    let v = facile_server::json::parse(line).expect("reply parses");
    if v.get("ok").and_then(|o| o.as_bool()) == Some(true) {
        return None;
    }
    Some(
        v.get("code")
            .and_then(|c| c.as_str())
            .unwrap_or_else(|| panic!("error reply without code: {line}"))
            .to_string(),
    )
}

/// A served item's row-level error code: per-item failures (panics
/// included) ride inside an `ok:true` reply as `status:"error"` rows.
fn row_err_code(line: &str) -> Option<String> {
    let v = facile_server::json::parse(line).expect("reply parses");
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{line}");
    let row = match v.get("rows").map(|r| &r.kind) {
        Some(facile_server::json::Kind::Arr(rows)) if !rows.is_empty() => &rows[0],
        _ => panic!("reply without rows: {line}"),
    };
    match row.get("status").and_then(|s| s.as_str()) {
        Some("ok") => None,
        Some("error") => Some(
            row.get("code")
                .and_then(|c| c.as_str())
                .expect("error row has a code")
                .to_string(),
        ),
        other => panic!("unexpected row status {other:?}: {line}"),
    }
}

/// The headline chaos test: under injected predictor panics and slowed
/// predictions, every request is answered exactly once, faulted items
/// fail with `internal-panic` *consistently* (same block → same fate,
/// thanks to content-keyed decisions), and every non-faulted reply is
/// byte-identical to the fault-free run. The server survives to serve a
/// consistent `stats` reply and drains cleanly.
#[test]
fn predictor_panics_are_contained_and_good_rows_are_byte_identical() {
    let _g = gate();
    let clean = {
        let server = start(|_| {});
        let replies = run_workload(tcp_addr(&server));
        server.stop();
        replies
    };
    assert!(clean.values().all(|l| row_err_code(l).is_none()));

    faults::configure("seed=11,predict-panic=0.5,slow-predict=0.25,slow-ms=2")
        .expect("spec parses");
    let server = start(|_| {});
    let addr = tcp_addr(&server);
    let chaotic = run_workload(addr);

    let mut block_fate: BTreeMap<&str, bool> = BTreeMap::new();
    let (mut panicked, mut ok) = (0u32, 0u32);
    for (id, line) in &chaotic {
        let s: usize = id
            .split('-')
            .nth(1)
            .expect("id shape")
            .parse()
            .expect("seq");
        let block = BLOCKS[s % BLOCKS.len()];
        match row_err_code(line) {
            None => {
                ok += 1;
                assert_eq!(line, &clean[id], "good row diverged from fault-free run");
                assert_ne!(block_fate.insert(block, false), Some(true), "{block}");
            }
            Some(code) => {
                panicked += 1;
                assert_eq!(code, "internal-panic", "unexpected error: {line}");
                assert_ne!(block_fate.insert(block, true), Some(false), "{block}");
            }
        }
    }
    assert!(panicked > 0, "the chosen seed never fired");
    assert!(ok > 0, "the chosen seed faulted every block");

    // Post-chaos stats are consistent and the server is still alive.
    let mut tx = TcpStream::connect(addr).expect("server still accepts");
    let mut rx = BufReader::new(tx.try_clone().expect("clones"));
    writeln!(tx, r#"{{"op":"stats"}}"#).expect("writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("stats reply");
    let v = facile_server::json::parse(line.trim_end()).expect("parses");
    let counter = |k: &str| {
        v.get("stats")
            .and_then(|s| s.get("server"))
            .and_then(|s| s.get(k))
            .and_then(|c| c.as_f64())
            .unwrap_or_else(|| panic!("stats.server.{k} missing")) as u64
    };
    assert_eq!(counter("requests"), 200 + 1);
    assert_eq!(counter("rows"), 200, "every predict produced its row");
    assert_eq!(counter("batcher_restarts"), 0);
    drop((tx, rx));
    server.stop();
    faults::clear();
}

/// A tiny resilient client: one request in flight, reconnect and resend
/// on EOF or a connection error (mirrors `facile client --retries`).
struct Resilient {
    addr: std::net::SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    reconnects: u32,
}

impl Resilient {
    fn call(&mut self, request: &str) -> String {
        for _ in 0..50 {
            let (tx, rx) = match &mut self.conn {
                Some(c) => c,
                None => {
                    let tx = TcpStream::connect(self.addr).expect("connects");
                    let rx = BufReader::new(tx.try_clone().expect("clones"));
                    self.conn.insert((tx, rx))
                }
            };
            let attempt = writeln!(tx, "{request}").and_then(|()| {
                let mut line = String::new();
                match rx.read_line(&mut line)? {
                    0 => Err(std::io::Error::new(ErrorKind::UnexpectedEof, "dropped")),
                    _ => Ok(line.trim_end().to_string()),
                }
            });
            match attempt {
                Ok(line) => return line,
                Err(_) => {
                    self.conn = None;
                    self.reconnects += 1;
                }
            }
        }
        panic!("no reply after 50 attempts");
    }
}

/// Injected connection drops: a client that reconnects and resends its
/// unanswered request gets a full, correct reply stream — identical to
/// what a drop-free server returns.
#[test]
fn dropped_connections_are_survivable_with_resend() {
    let _g = gate();
    faults::configure("seed=7,conn-drop=0.15").expect("spec parses");
    let server = start(|_| {});
    let mut client = Resilient {
        addr: tcp_addr(&server),
        conn: None,
        reconnects: 0,
    };
    let mut chaotic = Vec::new();
    for s in 0..40 {
        let block = BLOCKS[s % BLOCKS.len()];
        chaotic.push(client.call(&format!(
            r#"{{"op":"predict","block":"{block}","id":"{s}"}}"#
        )));
    }
    assert!(
        client.reconnects > 0,
        "the chosen seed never dropped a line"
    );
    server.stop();

    faults::clear();
    let server = start(|_| {});
    let mut client = Resilient {
        addr: tcp_addr(&server),
        conn: None,
        reconnects: 0,
    };
    for (s, chaotic_line) in chaotic.iter().enumerate() {
        let block = BLOCKS[s % BLOCKS.len()];
        let clean_line = client.call(&format!(
            r#"{{"op":"predict","block":"{block}","id":"{s}"}}"#
        ));
        assert_eq!(chaotic_line, &clean_line, "request {s} diverged");
    }
    assert_eq!(client.reconnects, 0);
    server.stop();
}

/// A panicking batcher thread is restarted by the supervisor: every
/// in-flight request still gets exactly one reply (`internal` for the
/// ones the dead batcher stranded), `batcher_restarts` counts the
/// incidents, and the restarted batcher serves cleanly.
#[test]
fn batcher_panics_are_supervised_and_restarted() {
    let _g = gate();
    faults::configure("seed=5,batcher-panic=0.3").expect("spec parses");
    let server = start(|_| {});
    let mut client = Resilient {
        addr: tcp_addr(&server),
        conn: None,
        reconnects: 0,
    };
    let (mut ok, mut internal) = (0u32, 0u32);
    for s in 0..30 {
        let line = client.call(&format!(r#"{{"op":"predict","block":"90","id":"{s}"}}"#));
        match reply_err_code(&line) {
            None => ok += 1,
            Some(code) => {
                assert_eq!(code, "internal", "unexpected error: {line}");
                assert!(line.contains("batcher restarted"), "{line}");
                internal += 1;
            }
        }
    }
    assert_eq!(ok + internal, 30, "every request answered exactly once");
    let restarts = server.counters().batcher_restarts.load(Ordering::Relaxed);
    assert!(restarts > 0, "the chosen seed never killed the batcher");
    assert!(internal > 0, "a batcher death should strand some request");

    // With the fault cleared, the *restarted* batcher serves normally on
    // the same server instance.
    faults::clear();
    for s in 0..5 {
        let line = client.call(&format!(
            r#"{{"op":"predict","block":"4801c8","id":"r{s}"}}"#
        ));
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    server.stop();
}

/// Leadership hand-off: while one connection's slowed round holds the
/// lead, `K` other connections each send a `predict`. They queue, and
/// when the slow round ends its leader hands the lead to the first of
/// them, which serves all `K` in one round: each gets exactly one reply,
/// byte-identical to a fault-free run, and `batches` grows by exactly 2.
/// A request sent afterwards is served at once, so the lead was released
/// rather than stranded.
#[test]
fn a_slow_round_hands_the_lead_to_one_gathered_round() {
    const K: usize = 4;
    const SLOW_MS: u64 = 600;
    let _g = gate();
    let call = |addr, line: &str| {
        let mut client = Resilient {
            addr,
            conn: None,
            reconnects: 0,
        };
        client.call(line)
    };
    let request = |k: usize| {
        let block = BLOCKS[k % BLOCKS.len()];
        format!(r#"{{"op":"predict","block":"{block}","id":"{k}"}}"#)
    };
    let clean: Vec<String> = {
        let server = start(|_| {});
        let replies = (0..K)
            .map(|k| call(tcp_addr(&server), &request(k)))
            .collect();
        server.stop();
        replies
    };

    faults::configure(&format!("seed=3,slow-predict=1.0,slow-ms={SLOW_MS}")).expect("spec parses");
    // A queue cap of 100 makes the `health` pressure count pending items.
    let server = start(|cfg| cfg.queue_cap = 100);
    let addr = tcp_addr(&server);
    let batches = || server.counters().batches.load(Ordering::Relaxed);
    let slow =
        std::thread::spawn(move || call(addr, r#"{"op":"predict","block":"4801c8","id":"slow"}"#));
    while batches() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued: Vec<_> = (0..K)
        .map(|k| {
            let line = request(k);
            std::thread::spawn(move || call(addr, &line))
        })
        .collect();
    // Once all K are admitted behind the slow round, clear the fault so
    // the gathered round runs at normal speed.
    let mut health = Resilient {
        addr,
        conn: None,
        reconnects: 0,
    };
    let all_pending = format!(r#""pressure":{:.2}"#, (K + 1) as f64 / 100.0);
    while !health.call(r#"{"op":"health"}"#).contains(&all_pending) {
        std::thread::sleep(Duration::from_millis(1));
    }
    faults::clear();

    let slow_reply = slow.join().expect("slow client");
    assert!(
        slow_reply.starts_with(r#"{"id":"slow","ok":true"#),
        "{slow_reply}"
    );
    for (k, h) in queued.into_iter().enumerate() {
        assert_eq!(h.join().expect("queued client"), clean[k], "request {k}");
    }
    assert_eq!(batches(), 2, "the slow round plus one gathered round");

    let mut tx = TcpStream::connect(addr).expect("connects");
    tx.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut rx = BufReader::new(tx.try_clone().expect("clones"));
    let sent = std::time::Instant::now();
    writeln!(tx, "{}", request(0)).expect("writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("reply arrives");
    let waited = sent.elapsed();
    assert_eq!(line.trim_end(), clean[0]);
    assert!(
        waited < Duration::from_millis(SLOW_MS),
        "a request after the hand-off waited {waited:?}"
    );
    assert_eq!(batches(), 3);
    drop((tx, rx));
    server.stop();
}

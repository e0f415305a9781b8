//! Resource-governance integration tests: the `health` op, degradation
//! tiers shedding batch-then-predict under queue pressure, per-connection
//! limits, and the cache budget's stats behavior — all against a live
//! in-process server.
//!
//! The tier test holds queue pressure with the `slow-predict` fault.
//! Fault state is process-global, so every test serializes on [`GATE`].

use facile_server::faults;
use facile_server::{Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    let g = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults::clear();
    g
}

fn start(mut cfg_edit: impl FnMut(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 2;
    cfg_edit(&mut cfg);
    Server::start(cfg).expect("server binds an ephemeral port")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let addr = match server.bound() {
        facile_server::BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    };
    let tx = TcpStream::connect(addr).expect("connects");
    let rx = BufReader::new(tx.try_clone().expect("clones"));
    (tx, rx)
}

fn round_trip(tx: &mut TcpStream, rx: &mut BufReader<TcpStream>, req: &str) -> String {
    writeln!(tx, "{req}").expect("request writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("reply arrives");
    line.trim_end().to_string()
}

#[test]
fn health_reply_is_pinned_when_idle() {
    let _g = gate();
    let server = start(|_| {});
    let (mut tx, mut rx) = connect(&server);
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"health","id":1}"#),
        r#"{"id":1,"ok":true,"health":"ok","pressure":0.00}"#
    );
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"health"}"#),
        r#"{"ok":true,"health":"ok","pressure":0.00}"#
    );
    server.stop();
}

#[test]
fn tiers_shed_batch_then_predict_under_queue_pressure() {
    // queue_cap 7 + a slowed prediction: one admitted 7-item batch (one
    // unit after dedup) holds pending_items at the cap (pressure 1.0 =
    // shedding) while its round sleeps, long enough to probe the tiers.
    let _g = gate();
    assert!(faults::compiled(), "this test needs the injection feature");
    faults::configure("seed=1,slow-predict=1.0,slow-ms=1500").expect("spec parses");
    let server = start(|cfg| {
        cfg.queue_cap = 7;
        cfg.threads = 1;
    });
    let (mut atx, mut arx) = connect(&server);
    let slow = std::thread::spawn(move || {
        round_trip(
            &mut atx,
            &mut arx,
            r#"{"op":"batch","blocks":["90","90","90","90","90","90","90"],"id":"slow"}"#,
        )
    });

    let (mut tx, mut rx) = connect(&server);
    // Wait until the slow batch is admitted and pressure shows shedding.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let h = round_trip(&mut tx, &mut rx, r#"{"op":"health"}"#);
        if h.contains(r#""health":"shedding""#) {
            break;
        }
        assert!(Instant::now() < deadline, "never reached shedding: {h}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shedding: both ops are rejected with the retryable code, ping and
    // stats still answer.
    let shed_batch = round_trip(&mut tx, &mut rx, r#"{"op":"batch","blocks":["90"],"id":2}"#);
    assert!(
        shed_batch.starts_with(r#"{"id":2,"ok":false,"code":"overloaded","error":"shedding load"#),
        "{shed_batch}"
    );
    let shed_predict = round_trip(&mut tx, &mut rx, r#"{"op":"predict","block":"90","id":3}"#);
    assert!(
        shed_predict
            .starts_with(r#"{"id":3,"ok":false,"code":"overloaded","error":"shedding load"#),
        "{shed_predict}"
    );
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"ping","id":4}"#),
        r#"{"id":4,"ok":true,"pong":true}"#
    );
    let stats = round_trip(&mut tx, &mut rx, r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""ok":true"#), "{stats}");

    // The slow batch itself was never shed: it completes with its rows.
    let slow_reply = slow.join().expect("slow batch thread");
    assert!(
        slow_reply.starts_with(r#"{"id":"slow","ok":true,"rows":["#),
        "{slow_reply}"
    );
    // Pressure collapses back to ok once the queue drains.
    let h = round_trip(&mut tx, &mut rx, r#"{"op":"health"}"#);
    assert!(h.contains(r#""health":"ok""#), "{h}");

    let c = server.counters();
    let g = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(g(&c.shed_batch), 1);
    assert_eq!(g(&c.shed_predict), 1);
    server.stop();
    faults::clear();
}

#[test]
fn per_connection_limits_reject_before_admission() {
    let _g = gate();
    let server = start(|cfg| {
        cfg.conn_max_items = 4;
        cfg.conn_rps = 2;
    });
    let (mut tx, mut rx) = connect(&server);
    // Item cap: checked before the rate bucket and the global queue.
    let big = round_trip(
        &mut tx,
        &mut rx,
        r#"{"op":"batch","blocks":["90","90","90","90","90"],"id":1}"#,
    );
    assert_eq!(
        big,
        r#"{"id":1,"ok":false,"code":"overloaded","error":"request carries 5 items, above this connection's 4-item limit"}"#
    );
    // Within the cap: serves normally, consuming one token.
    let ok = round_trip(
        &mut tx,
        &mut rx,
        r#"{"op":"batch","blocks":["90","90","90","90"]}"#,
    );
    assert!(ok.starts_with(r#"{"ok":true,"rows":["#), "{ok}");
    // Second token, then the bucket is dry.
    let ok = round_trip(&mut tx, &mut rx, r#"{"op":"predict","block":"90"}"#);
    assert!(ok.starts_with(r#"{"ok":true,"rows":["#), "{ok}");
    let limited = round_trip(&mut tx, &mut rx, r#"{"op":"predict","block":"90","id":9}"#);
    assert_eq!(
        limited,
        r#"{"id":9,"ok":false,"code":"overloaded","error":"connection rate limit: above 2 request(s)/s"}"#
    );
    // Ping and health are never rate-limited.
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"ping"}"#),
        r#"{"ok":true,"pong":true}"#
    );
    // A fresh connection gets a fresh bucket.
    let (mut tx2, mut rx2) = connect(&server);
    let ok = round_trip(&mut tx2, &mut rx2, r#"{"op":"predict","block":"90"}"#);
    assert!(ok.starts_with(r#"{"ok":true,"rows":["#), "{ok}");

    let c = server.counters();
    assert_eq!(
        c.rejected_conn_limit
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    server.stop();
}

#[test]
fn cache_budget_bounds_memory() {
    let _g = gate();
    let budget_mb = 8usize;
    let server = start(|cfg| {
        cfg.cache_budget = Some(facile_engine::CacheBudget::from_total_mb(budget_mb));
    });
    let (mut tx, mut rx) = connect(&server);
    // Distinct blocks (mov eax, imm32) defeat dedup and fill the cache.
    let blocks: Vec<String> = (0..512u32).map(|i| format!("\"b8{i:08x}\"")).collect();
    let req = format!(r#"{{"op":"batch","blocks":[{}]}}"#, blocks.join(","));
    let reply = round_trip(&mut tx, &mut rx, &req);
    assert!(reply.starts_with(r#"{"ok":true,"rows":["#), "{reply}");

    // Stats expose the governance state alongside the counters.
    let stats = round_trip(&mut tx, &mut rx, r#"{"op":"stats"}"#);
    let v = facile_server::json::parse(&stats).expect("stats reply parses");
    let srv = v
        .get("stats")
        .and_then(|s| s.get("server"))
        .expect("server stats");
    assert!(srv.get("tier").is_some(), "stats missing tier: {stats}");
    assert!(
        srv.get("pressure").is_some(),
        "stats missing pressure: {stats}"
    );
    assert!(
        srv.get("external").is_some(),
        "stats missing external: {stats}"
    );
    let budget = srv.get("budget").expect("budget object");
    let total = budget
        .get("total")
        .and_then(|t| t.as_f64())
        .expect("budget total");
    assert_eq!(total as usize, budget_mb << 20);
    let accounted = budget
        .get("bytes")
        .and_then(|t| t.as_f64())
        .expect("budget bytes");
    assert!(
        accounted > 0.0 && accounted <= (budget_mb << 20) as f64,
        "accounted {accounted} bytes vs the {budget_mb} MiB budget"
    );
    let cache_bytes = v
        .get("stats")
        .and_then(|s| s.get("engine"))
        .and_then(|e| e.get("block_cache"))
        .and_then(|c| c.get("bytes"))
        .and_then(|b| b.as_f64())
        .expect("block_cache bytes");
    assert!(cache_bytes > 0.0, "cache accounted no bytes");
    assert!(
        (cache_bytes as usize) <= budget_mb << 20,
        "cache bytes {cache_bytes} above the {budget_mb} MiB budget"
    );
    // The budget's bytes are the three caches' bytes of the same reply.
    let intern_bytes = v
        .get("stats")
        .and_then(|s| s.get("engine"))
        .and_then(|e| e.get("intern_table"))
        .and_then(|c| c.get("bytes"))
        .and_then(|b| b.as_f64())
        .expect("intern_table bytes");
    let external_bytes: f64 = match &srv.get("external").expect("external").kind {
        facile_server::json::Kind::Arr(items) => items
            .iter()
            .map(|e| {
                e.get("cache_bytes")
                    .and_then(|b| b.as_f64())
                    .expect("cache_bytes")
            })
            .sum(),
        _ => panic!("external is not an array: {stats}"),
    };
    assert_eq!(
        accounted,
        cache_bytes + intern_bytes + external_bytes,
        "{stats}"
    );

    server.stop();
}

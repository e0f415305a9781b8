//! Protocol golden tests: every request/response shape is pinned to
//! exact reply bytes against a live in-process server, so any protocol
//! change is a deliberate golden update, never an accident.
//!
//! The `stats` reply is the one exception: the static-table counters are
//! process-wide and the engine counters move with parallel test
//! execution, so its reply is shape-checked rather than byte-pinned.

use facile_server::{Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

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
    assert!(line.ends_with('\n'), "replies are newline-terminated");
    line.trim_end().to_string()
}

#[test]
fn golden_replies() {
    let server = start(|_| {});
    let (mut tx, mut rx) = connect(&server);
    let mut rt = |req: &str| round_trip(&mut tx, &mut rx, req);

    // Liveness, with and without an echoed id (ids echo verbatim —
    // numbers, strings, and structured values alike).
    assert_eq!(rt(r#"{"op":"ping"}"#), r#"{"ok":true,"pong":true}"#);
    assert_eq!(
        rt(r#"{"op":"ping","id":17}"#),
        r#"{"id":17,"ok":true,"pong":true}"#
    );
    assert_eq!(
        rt(r#"{"op":"ping","id":{"seq":[1,2]}}"#),
        r#"{"id":{"seq":[1,2]},"ok":true,"pong":true}"#
    );

    // Single-block predict: the row is the CLI's own JSON rendering.
    assert_eq!(
        rt(r#"{"op":"predict","block":"4801c8","uarch":"SKL","id":1}"#),
        "{\"id\":1,\"ok\":true,\"rows\":[{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\
         \"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":1.0000,\
         \"bottleneck\":\"Precedence\"}]}"
    );

    // Batch: rows in item order; undecodable blocks become error rows.
    assert_eq!(
        rt(r#"{"op":"batch","blocks":["4801c8480fafd0","zz"],"uarch":"SKL"}"#),
        "{\"ok\":true,\"rows\":[{\"block\":\"4801c8480fafd0\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\
         \"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":3.0000,\
         \"bottleneck\":\"Precedence\"},{\"block\":\"zz\",\"uarch\":\"SKL\",\"mode\":\"\",\
         \"predictor\":\"facile\",\"status\":\"error\",\"code\":\"bad-hex\",\
         \"error\":\"not a hex-encoded block: \\\"zz\\\"\"}]}"
    );

    // Fixed notion + CSV rendering: rows are carried as JSON strings.
    assert_eq!(
        rt(r#"{"op":"predict","block":"49ffcb75fb","uarch":"SKL","mode":"tpl","format":"csv"}"#),
        r#"{"ok":true,"rows":["49ffcb75fb,SKL,tpl,facile,ok,1.0000,DSB,"]}"#
    );

    // Protocol errors: stable codes, ids still echoed.
    assert_eq!(
        rt("not json"),
        r#"{"ok":false,"code":"bad-json","error":"malformed JSON: invalid literal at byte 0"}"#
    );
    assert_eq!(
        rt(r#"{"op":"warp","id":"a"}"#),
        r#"{"id":"a","ok":false,"code":"bad-request","error":"unknown op: \"warp\""}"#
    );
    assert_eq!(
        rt(r#"{"op":"predict","block":"90","uarhc":"SKL"}"#),
        r#"{"ok":false,"code":"bad-request","error":"unknown field: \"uarhc\""}"#
    );
    let unknown = rt(r#"{"op":"predict","block":"90","predictors":"no-such","id":9}"#);
    assert!(
        unknown.starts_with(r#"{"id":9,"ok":false,"code":"unknown-predictor""#),
        "{unknown}"
    );

    // Empty batch: a well-formed empty reply, not an error.
    assert_eq!(
        rt(r#"{"op":"batch","blocks":[],"id":0}"#),
        r#"{"id":0,"ok":true,"rows":[]}"#
    );
    server.stop();
}

#[test]
fn stats_reply_shape() {
    let server = start(|_| {});
    let (mut tx, mut rx) = connect(&server);
    let _ = round_trip(&mut tx, &mut rx, r#"{"op":"predict","block":"4801c8"}"#);
    let reply = round_trip(&mut tx, &mut rx, r#"{"op":"stats","id":5}"#);
    let v = facile_server::json::parse(&reply).expect("stats reply parses");
    assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(5.0));
    let stats = v.get("stats").expect("stats member");
    let srv = stats.get("server").expect("server counters");
    for key in [
        "connections",
        "requests",
        "rows",
        "batches",
        "batched_items",
        "rejected_overload",
        "rejected_deadline",
        "protocol_errors",
        "batcher_restarts",
    ] {
        assert!(srv.get(key).is_some(), "server stats missing {key}");
    }
    assert!(srv.get("rows").and_then(|x| x.as_f64()).expect("rows") >= 1.0);
    let engine = stats.get("engine").expect("engine counters");
    for key in ["planner", "block_cache", "static_tables", "kernels"] {
        assert!(engine.get(key).is_some(), "engine stats missing {key}");
    }
    server.stop();
}

#[test]
fn overload_and_deadline_rejections() {
    // queue_cap 2: a 3-item request cannot be admitted.
    let server = start(|cfg| cfg.queue_cap = 2);
    let (mut tx, mut rx) = connect(&server);
    assert_eq!(
        round_trip(
            &mut tx,
            &mut rx,
            r#"{"op":"batch","blocks":["90","90","90"],"id":1}"#
        ),
        r#"{"id":1,"ok":false,"code":"overloaded","error":"queue full: 3 items would exceed the 2-item cap"}"#
    );
    // Within the cap, requests still serve.
    let ok = round_trip(&mut tx, &mut rx, r#"{"op":"batch","blocks":["90","90"]}"#);
    assert!(ok.starts_with(r#"{"ok":true,"rows":["#), "{ok}");

    // deadline_ms 0: expired by the time its round dequeues it.
    assert_eq!(
        round_trip(
            &mut tx,
            &mut rx,
            r#"{"op":"predict","block":"4801c8","deadline_ms":0,"id":2}"#
        ),
        r#"{"id":2,"ok":false,"code":"deadline-exceeded","error":"request exceeded its deadline while queued"}"#
    );
    // A generous deadline passes untouched.
    let ok = round_trip(
        &mut tx,
        &mut rx,
        r#"{"op":"predict","block":"4801c8","deadline_ms":60000}"#,
    );
    assert!(ok.contains(r#""status":"ok""#), "{ok}");

    let counters = server.counters();
    assert_eq!(
        counters
            .rejected_overload
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        counters
            .rejected_deadline
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.stop();
}

#[test]
fn oversized_line_is_rejected() {
    let server = start(|cfg| cfg.max_line_bytes = 256);
    let (mut tx, mut rx) = connect(&server);
    let huge = format!(r#"{{"op":"batch","blocks":["{}"]}}"#, "90".repeat(4096));
    writeln!(tx, "{huge}").expect("writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("reply arrives");
    assert_eq!(
        line.trim_end(),
        r#"{"ok":false,"code":"line-too-long","error":"request line exceeds 256 bytes"}"#
    );
    // The line was newline-terminated, so the boundary is known and the
    // connection survives the rejection.
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"ping","id":1}"#),
        r#"{"id":1,"ok":true,"pong":true}"#
    );
    // An *unterminated* over-long line loses the boundary: the server
    // rejects it and hangs up.
    let (mut tx2, mut rx2) = connect(&server);
    write!(tx2, "{}", "x".repeat(512)).expect("writes");
    tx2.flush().expect("flushes");
    line.clear();
    rx2.read_line(&mut line).expect("reply arrives");
    assert_eq!(
        line.trim_end(),
        r#"{"ok":false,"code":"line-too-long","error":"request line exceeds 256 bytes"}"#
    );
    line.clear();
    assert_eq!(rx2.read_line(&mut line).expect("EOF"), 0);
    server.stop();
}

#[test]
fn drain_answers_inflight_then_closes() {
    let server = start(|_| {});
    let (mut tx, mut rx) = connect(&server);
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"ping","id":1}"#),
        r#"{"id":1,"ok":true,"pong":true}"#
    );
    server.stop();
    // The server is gone: either the write fails or the read sees EOF.
    let dead = writeln!(tx, r#"{{"op":"ping"}}"#).is_err() || {
        let mut line = String::new();
        rx.read_line(&mut line).map_or(true, |n| n == 0)
    };
    assert!(dead, "connection should be closed after stop()");
}

#[test]
fn request_split_across_writes_gets_one_identical_reply() {
    let server = start(|_| {});
    // Longer than one 16 KiB server read, so the line also spans reads.
    let blocks = vec![r#""4801c8""#; 2048].join(",");
    let req = format!(r#"{{"op":"batch","blocks":[{blocks}],"id":"split"}}"#);
    let (mut tx, mut rx) = connect(&server);
    let whole = round_trip(&mut tx, &mut rx, &req);
    assert!(whole.starts_with(r#"{"id":"split","ok":true,"rows":["#));

    let (mut tx, mut rx) = connect(&server);
    let line = format!("{req}\n");
    let (a, b) = (line.len() / 3, 2 * line.len() / 3);
    for piece in [&line[..a], &line[a..b], &line[b..]] {
        tx.write_all(piece.as_bytes()).expect("piece writes");
        tx.flush().expect("flushes");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reply = String::new();
    rx.read_line(&mut reply).expect("reply arrives");
    assert_eq!(reply.trim_end(), whole, "split request's reply differs");
    // Exactly one reply: the next line answers the next request.
    assert_eq!(
        round_trip(&mut tx, &mut rx, r#"{"op":"ping","id":2}"#),
        r#"{"id":2,"ok":true,"pong":true}"#
    );
    server.stop();
}

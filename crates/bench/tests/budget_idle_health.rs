//! A cache budget is not load: a daemon serving an external tool under
//! a 1 MiB `--cache-budget-mb` keeps serving once its annotation and
//! external-result caches are full.
//!
//! Each cache is capped at its share of the budget on insert, so full
//! caches cost hit rate, never admission. The corpus fills the caches:
//! 20,000 distinct `mov eax, imm32` blocks, then 6,000 blocks
//! of the generated `BlockStream(11)`, each predicted by Facile and by
//! the `mock_predictor` tool echoing Facile. Afterwards the idle
//! server must report `health: ok` and serve a one-block batch.

use facile_bhive::BlockStream;
use facile_engine::{CacheBudget, ExternalSpec};
use facile_server::{json, BoundAddr, Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const MOCK: &str = env!("CARGO_BIN_EXE_mock_predictor");

fn round_trip(tx: &mut TcpStream, rx: &mut BufReader<TcpStream>, req: &str) -> String {
    writeln!(tx, "{req}").expect("request writes");
    let mut line = String::new();
    rx.read_line(&mut line).expect("reply arrives");
    line.trim_end().to_string()
}

#[test]
fn full_caches_leave_an_idle_server_serving() {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 2;
    cfg.predictors = "facile,ext:mock".to_string();
    cfg.external =
        vec![ExternalSpec::parse("mock", &format!("{MOCK} --mode echo-facile")).unwrap()];
    cfg.cache_budget = Some(CacheBudget::from_total_mb(1));
    let server = Server::start(cfg).expect("server binds an ephemeral port");
    let addr = match server.bound() {
        BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    };
    let mut tx = TcpStream::connect(addr).expect("connects");
    let mut rx = BufReader::new(tx.try_clone().expect("clones"));

    let blocks: Vec<String> = (0..20_000u32)
        .map(|i| format!("\"b8{i:08x}\""))
        .chain(
            BlockStream::new(11)
                .take(6_000)
                .map(|gb| format!("\"{}\"", gb.block.to_hex())),
        )
        .collect();
    for chunk in blocks.chunks(1024) {
        let req = format!(r#"{{"op":"batch","blocks":[{}]}}"#, chunk.join(","));
        let reply = round_trip(&mut tx, &mut rx, &req);
        assert!(
            reply.starts_with(r#"{"ok":true,"rows":["#),
            "{}",
            &reply[..reply.len().min(300)]
        );
    }

    // A batch leaves the queue count before its reply is written, so
    // the queue has drained and the server is idle.
    let health = round_trip(&mut tx, &mut rx, r#"{"op":"health"}"#);
    assert_eq!(health, r#"{"ok":true,"health":"ok","pressure":0.00}"#);
    let one = round_trip(&mut tx, &mut rx, r#"{"op":"batch","blocks":["90"],"id":1}"#);
    assert!(one.starts_with(r#"{"id":1,"ok":true,"rows":["#), "{one}");
    // The annotation and external caches evicted, and the budget held.
    let stats = round_trip(&mut tx, &mut rx, r#"{"op":"stats"}"#);
    let v = json::parse(&stats).expect("stats reply parses");
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |at, key| at.get(key))
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("{path:?} missing: {stats}"))
    };
    assert!(
        num(&["stats", "engine", "block_cache", "evictions"]) > 0.0,
        "{stats}"
    );
    let ext = match &v
        .get("stats")
        .and_then(|s| s.get("server"))
        .and_then(|s| s.get("external"))
        .map(|e| &e.kind)
    {
        Some(json::Kind::Arr(items)) if items.len() == 1 => &items[0],
        other => panic!("one external expected, got {other:?}"),
    };
    let ext_evictions = ext.get("cache_evictions").and_then(json::Value::as_f64);
    assert!(ext_evictions > Some(0.0), "{stats}");
    let bytes = num(&["stats", "server", "budget", "bytes"]);
    assert!(
        bytes <= num(&["stats", "server", "budget", "total"]),
        "{stats}"
    );
    server.stop();
}

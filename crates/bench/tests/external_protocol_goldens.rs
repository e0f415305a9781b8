//! Wire-protocol golden tests for the external-predictor adapter:
//! request shapes, reply parsing, and every sandbox error mode are
//! pinned byte-for-byte — both the typed `PredictError` and the stable
//! engine error-row JSON string. Any protocol change is a deliberate
//! golden update, never an accident.

use facile_engine::render::row_json;
use facile_engine::{
    external, BatchItem, BreakerSpec, Engine, ExternalPredictor, ExternalSpec, PredictorRegistry,
};
use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use facile_uarch::Uarch;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const MOCK: &str = env!("CARGO_BIN_EXE_mock_predictor");

/// A single-threaded engine serving only `ext:mock` with the given mock
/// mode and per-request timeout.
fn ext_engine(mode_args: &str, timeout_ms: u64) -> Engine {
    let mut spec = ExternalSpec::parse("mock", &format!("{MOCK} --mode {mode_args}")).unwrap();
    spec.timeout = Duration::from_millis(timeout_ms);
    let mut registry = PredictorRegistry::new();
    registry.register(Arc::new(ExternalPredictor::new(spec)));
    Engine::new(registry).with_threads(1)
}

fn one_row(engine: &Engine, hex: &str) -> String {
    let items = [BatchItem::hex(hex, Uarch::Skl)];
    let rows = engine.predict_batch(&items, "ext:mock").unwrap();
    row_json(&rows[0])
}

#[test]
fn request_lines_are_pinned() {
    assert_eq!(external::version_request(0), r#"{"id":0,"op":"version"}"#);
    assert_eq!(
        external::predict_request(1, "4801c8", Uarch::Skl, facile_core::Mode::Unrolled),
        r#"{"id":1,"op":"predict","block":"4801c8","uarch":"SKL","mode":"tpu"}"#
    );
    assert_eq!(
        external::predict_request(2, "ffe0", Uarch::Icl, facile_core::Mode::Loop),
        r#"{"id":2,"op":"predict","block":"ffe0","uarch":"ICL","mode":"tpl"}"#
    );
}

#[test]
fn request_stream_on_the_wire_is_pinned() {
    // The mock's --record mode captures the raw request lines the
    // adapter actually writes: handshake first, then predicts with
    // monotonically increasing ids.
    let record = std::env::temp_dir().join(format!(
        "facile-ext-goldens-record-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&record);
    let mut spec = ExternalSpec::parse(
        "mock",
        &format!("{MOCK} --mode echo-facile --record {}", record.display()),
    )
    .unwrap();
    spec.timeout = Duration::from_secs(10);
    let mut registry = PredictorRegistry::new();
    registry.register(Arc::new(ExternalPredictor::new(spec)));
    let engine = Engine::new(registry).with_threads(1);
    let items = [
        BatchItem::hex("4801c8", Uarch::Skl),
        BatchItem::hex("ffc0", Uarch::Icl).with_mode(facile_core::Mode::Loop),
    ];
    let rows = engine.predict_batch(&items, "ext:mock").unwrap();
    assert!(rows.iter().all(|r| r.prediction.is_ok()));
    drop(engine); // kills the subprocess, flushing the record file
    let recorded = std::fs::read_to_string(&record).unwrap();
    assert_eq!(
        recorded,
        "{\"id\":0,\"op\":\"version\"}\n\
         {\"id\":1,\"op\":\"predict\",\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\"}\n\
         {\"id\":2,\"op\":\"predict\",\"block\":\"ffc0\",\"uarch\":\"ICL\",\"mode\":\"tpl\"}\n"
    );
    let _ = std::fs::remove_file(&record);
}

#[test]
fn reply_shapes_are_pinned() {
    let ok = external::parse_reply(r#"{"id":7,"throughput":1.25}"#).unwrap();
    assert_eq!((ok.id, ok.throughput), (Some(7), Some(1.25)));
    let err = external::parse_reply(r#"{"id":8,"error":"cannot decode block"}"#).unwrap();
    assert_eq!(err.error.as_deref(), Some("cannot decode block"));
    let ver = external::parse_reply(r#"{"id":0,"version":"mock-1"}"#).unwrap();
    assert_eq!(ver.version.as_deref(), Some("mock-1"));
}

#[test]
fn success_row_is_pinned() {
    let engine = ext_engine("echo-facile", 10_000);
    assert_eq!(
        one_row(&engine, "4801c8"),
        "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
         \"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":null}"
    );
}

#[test]
fn timeout_row_is_pinned() {
    let engine = ext_engine("hang", 100);
    assert_eq!(
        one_row(&engine, "4801c8"),
        "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
         \"status\":\"error\",\"code\":\"external-timeout\",\
         \"error\":\"external predictor \\\"ext:mock\\\" timed out after 100 ms\"}"
    );
}

#[test]
fn crash_row_is_pinned() {
    let engine = ext_engine("crash-after=0", 10_000);
    assert_eq!(
        one_row(&engine, "4801c8"),
        "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
         \"status\":\"error\",\"code\":\"external-crashed\",\
         \"error\":\"external predictor \\\"ext:mock\\\" crashed: stdout closed (exit status: 3)\"}"
    );
}

#[test]
fn malformed_row_is_pinned() {
    let engine = ext_engine("garbage-json", 10_000);
    assert_eq!(
        one_row(&engine, "4801c8"),
        "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
         \"status\":\"error\",\"code\":\"external-malformed\",\
         \"error\":\"external predictor \\\"ext:mock\\\" sent a malformed reply: \
         byte 0: expected '{' in \\\"this is not json {\\\"\"}"
    );
}

#[test]
fn default_breaker_rows_are_pinned() {
    // crash-after=0 with the default breaker (threshold 5, cooldown 32):
    // each of the first five requests respawns the tool at once and
    // crashes for real; the fifth trips the breaker, and the next 32
    // requests fail fast. No row says the adapter gave up.
    let spec = ExternalSpec::parse("mock", &format!("{MOCK} --mode crash-after=0")).unwrap();
    let mut registry = PredictorRegistry::new();
    registry.register(Arc::new(ExternalPredictor::new(spec)));
    let engine = Engine::new(registry).with_threads(1);
    let row = |code: &str, error: &str| {
        format!(
            "{{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
             \"status\":\"error\",\"code\":\"{code}\",\"error\":\"external predictor \\\"ext:mock\\\" {error}\"}}"
        )
    };
    let next = || {
        engine.clear_cache();
        one_row(&engine, "4801c8")
    };
    for _ in 0..5 {
        assert_eq!(
            next(),
            row(
                "external-crashed",
                "crashed: stdout closed (exit status: 3)"
            )
        );
    }
    assert_eq!(
        next(),
        row(
            "external-circuit-open",
            "circuit open (31 request(s) until probe)"
        )
    );
    assert_eq!(
        next(),
        row(
            "external-circuit-open",
            "circuit open (30 request(s) until probe)"
        )
    );
}

#[test]
fn circuit_breaker_rows_are_pinned() {
    // threshold=2, cooldown=3 with a tool that crashes on every predict:
    // two real failures trip the breaker, the next three requests fail
    // fast with the stable external-circuit-open code, then a half-open
    // probe is let through (and crashes, reopening with the cooldown
    // doubled). Below the threshold the tool is respawned at once.
    let mut spec = ExternalSpec::parse("mock", &format!("{MOCK} --mode crash-after=0")).unwrap();
    spec.breaker = BreakerSpec {
        threshold: 2,
        cooldown: 3,
    };
    let mut registry = PredictorRegistry::new();
    registry.register(Arc::new(ExternalPredictor::new(spec)));
    let engine = Engine::new(registry).with_threads(1);
    let crash_prefix = "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
                  \"status\":\"error\",\"code\":\"external-crashed\",\"error\":\"external predictor \\\"ext:mock\\\" crashed: ";
    let open_prefix = "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"ext:mock\",\
                  \"status\":\"error\",\"code\":\"external-circuit-open\",\"error\":\"external predictor \\\"ext:mock\\\" ";
    let crashed = |suffix: &str| format!("{crash_prefix}{suffix}\"}}");
    let open = |suffix: &str| format!("{open_prefix}{suffix}\"}}");
    let next = || {
        engine.clear_cache();
        one_row(&engine, "4801c8")
    };
    // Failure 1: a real crash; the next request respawns the tool.
    assert_eq!(next(), crashed("stdout closed (exit status: 3)"));
    // Failure 2 trips the breaker: three fail-fast rows, no subprocess.
    assert_eq!(next(), crashed("stdout closed (exit status: 3)"));
    assert_eq!(next(), open("circuit open (2 request(s) until probe)"));
    assert_eq!(next(), open("circuit open (1 request(s) until probe)"));
    assert_eq!(next(), open("circuit open (0 request(s) until probe)"));
    // The half-open probe reaches the tool (a real crash row), fails,
    // and reopens with the cooldown doubled: 6 requests this time.
    assert_eq!(next(), crashed("stdout closed (exit status: 3)"));
    assert_eq!(next(), open("circuit open (5 request(s) until probe)"));
}

#[test]
fn one_tool_gives_the_same_rows_in_the_cli_and_the_server() {
    // One selector-defined tool that crashes on every predict, 64
    // distinct blocks: the rows walk through respawns, the trip, the
    // open breaker and a failed probe, and must be the same whether the
    // CLI's engine or the server supervises the tool.
    let selector = format!("ext:mock={MOCK} --mode crash-after=0");
    let blocks: Vec<String> = (0..64u32).map(|i| format!("b8{i:08x}")).collect();

    // `facile --batch`: an uncached engine, the tool registered from the
    // selector.
    let mut engine = Engine::new(PredictorRegistry::with_builtins())
        .without_cache()
        .with_threads(1);
    let keys = external::register_selector_externals(engine.registry_mut(), &selector).unwrap();
    let items: Vec<BatchItem> = blocks
        .iter()
        .map(|b| BatchItem::hex(b.as_str(), Uarch::Skl))
        .collect();
    let cli: Vec<String> = engine
        .predict_batch(&items, &keys)
        .unwrap()
        .iter()
        .map(row_json)
        .collect();
    assert_eq!(cli.len(), 64);

    // `facile serve`: the same selector, one batch on one connection.
    let (external, predictors) = external::extract_selector_externals(&selector).unwrap();
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 1;
    cfg.external = external;
    cfg.predictors = predictors;
    let server = Server::start(cfg).unwrap();
    let BoundAddr::Tcp(addr) = server.bound() else {
        panic!("expected a TCP address")
    };
    let mut tx = TcpStream::connect(addr).unwrap();
    let mut rx = BufReader::new(tx.try_clone().unwrap());
    let quoted: Vec<String> = blocks.iter().map(|b| format!("\"{b}\"")).collect();
    writeln!(
        tx,
        "{{\"op\":\"batch\",\"blocks\":[{}],\"uarch\":\"SKL\"}}",
        quoted.join(",")
    )
    .unwrap();
    let mut reply = String::new();
    rx.read_line(&mut reply).unwrap();
    drop((tx, rx));
    server.stop();
    assert_eq!(
        reply.trim_end(),
        format!("{{\"ok\":true,\"rows\":[{}]}}", cli.join(","))
    );
}

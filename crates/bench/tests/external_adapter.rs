//! End-to-end behavior of the external-predictor adapter against the
//! `mock_predictor` fixture: agreement with the in-process model,
//! result caching, every sandbox error mode, and circuit-breaker
//! supervision.

use facile_engine::{
    BatchItem, BreakerSpec, Engine, ExternalPredictor, ExternalSpec, PredictError, Predictor,
    PredictorRegistry,
};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::time::Duration;

const MOCK: &str = env!("CARGO_BIN_EXE_mock_predictor");

fn spec(mode_args: &str) -> ExternalSpec {
    ExternalSpec::parse("mock", &format!("{MOCK} --mode {mode_args}")).unwrap()
}

#[test]
fn echo_facile_agrees_with_builtin() {
    let mut registry = PredictorRegistry::with_builtins();
    registry.register(std::sync::Arc::new(ExternalPredictor::new(spec(
        "echo-facile",
    ))));
    let engine = Engine::new(registry).with_threads(2);
    let items: Vec<BatchItem> = ["4801c8", "480fafd04801c8", "ffc0ffc3"]
        .iter()
        .map(|h| BatchItem::hex(*h, Uarch::Skl))
        .collect();
    let rows = engine.predict_batch(&items, "facile,ext:mock").unwrap();
    for pair in rows.chunks(2) {
        let a = pair[0].prediction.as_ref().unwrap();
        let b = pair[1].prediction.as_ref().unwrap();
        assert_eq!(a.throughput, b.throughput, "mock must echo facile");
    }
}

#[test]
fn results_are_cached_per_block() {
    let ext = ExternalPredictor::new(spec("echo-facile"));
    let block = Block::from_hex("4801c8").unwrap();
    let ab = AnnotatedBlock::new(block, Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    let first = ext.predict(&req).unwrap();
    assert_eq!(ext.cached(), 1);
    let second = ext.predict(&req).unwrap();
    assert_eq!(first.throughput, second.throughput);
    assert_eq!(ext.cached(), 1, "repeat predictions hit the cache");
    assert_eq!(ext.tool_version().as_deref(), Some("mock-1"));
    assert_eq!(ext.restarts(), 0);
}

#[test]
fn hang_is_sandboxed_into_timeout() {
    let mut s = spec("hang");
    s.timeout = Duration::from_millis(100);
    let ext = ExternalPredictor::new(s);
    let ab = AnnotatedBlock::new(Block::from_hex("4801c8").unwrap(), Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    match ext.predict(&req) {
        Err(PredictError::ExternalTimeout { tool, timeout_ms }) => {
            assert_eq!(tool, "ext:mock");
            assert_eq!(timeout_ms, 100);
        }
        other => panic!("expected ExternalTimeout, got {other:?}"),
    }
}

#[test]
fn garbage_is_sandboxed_into_malformed() {
    let ext = ExternalPredictor::new(spec("garbage-json"));
    let ab = AnnotatedBlock::new(Block::from_hex("4801c8").unwrap(), Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    match ext.predict(&req) {
        Err(PredictError::ExternalMalformed { tool, detail }) => {
            assert_eq!(tool, "ext:mock");
            assert!(detail.contains("expected '{'"), "{detail}");
        }
        other => panic!("expected ExternalMalformed, got {other:?}"),
    }
}

#[test]
fn crash_restarts_until_the_breaker_opens_and_never_gives_up() {
    let ext = ExternalPredictor::new(spec("crash-after=0"));
    let ab = AnnotatedBlock::new(Block::from_hex("4801c8").unwrap(), Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    let mut crashes_before_open = 0u32;
    let mut opens = 0u32;
    // crash-after=0 dies on every first predict, so every respawn fails
    // again: each request respawns the tool at once until the default
    // breaker's five consecutive failures open it.
    for _ in 0..64 {
        match ext.predict(&req) {
            Err(PredictError::ExternalCrashed { detail, .. }) => {
                assert!(!detail.contains("gave up"), "{detail}");
                if opens == 0 {
                    crashes_before_open += 1;
                }
            }
            Err(PredictError::ExternalCircuitOpen { .. }) => opens += 1,
            other => panic!("expected a crash or an open breaker, got {other:?}"),
        }
    }
    assert_eq!(
        crashes_before_open, 5,
        "real crashes before the first open row"
    );
    assert!(
        opens >= 32,
        "expected the cooldown's fail-fast rows, saw {opens}"
    );
    assert_eq!(ext.restarts(), 5, "four respawns, then the first probe's");
    assert!(ext.breaker_trips() >= 2);
}

#[test]
fn recovers_after_transient_crash() {
    // crash-after=2: two good replies, then death. The adapter restarts
    // the tool on the next request and gets answers again.
    let ext = ExternalPredictor::new(spec("crash-after=2"));
    let blocks = ["4801c8", "480fafd0", "ffc0", "ffc3", "4829c8", "4821c8"];
    let mut oks = 0u32;
    let mut errs = 0u32;
    // Distinct blocks defeat the cache, forcing real subprocess traffic.
    for round in 0..6 {
        for hex in blocks {
            let ab = AnnotatedBlock::new(Block::from_hex(hex).unwrap(), Uarch::Skl);
            let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
            match ext.predict(&req) {
                Ok(_) => oks += 1,
                Err(PredictError::ExternalCrashed { .. }) => errs += 1,
                Err(other) => panic!("round {round}: unexpected {other:?}"),
            }
        }
    }
    assert!(errs >= 1, "the tool never crashed");
    assert!(
        oks > 6,
        "the adapter never recovered: {oks} oks / {errs} errs"
    );
    assert!(ext.restarts() >= 1);
}

#[test]
fn breaker_opens_then_closes_on_successful_probe() {
    // A tool whose first three spawns die immediately, then behaves: the
    // breaker trips on consecutive spawn failures, fails fast while
    // open, and a later half-open probe (fourth spawn) succeeds and
    // closes it again.
    let dir = std::env::temp_dir().join(format!("facile-ext-breaker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("flaky.sh");
    let counter = dir.join("spawns");
    std::fs::write(
        &script,
        "#!/bin/sh\ncount=$(cat \"$1\" 2>/dev/null || echo 0)\ncount=$((count+1))\necho $count > \"$1\"\nif [ \"$count\" -le 3 ]; then exit 3; fi\nwhile read line; do\n  id=${line#*\\\"id\\\":}; id=${id%%,*}; id=${id%%\\}*}\n  case \"$line\" in\n    *version*) printf '{\"id\":%s,\"version\":\"flaky-1\"}\\n' \"$id\" ;;\n    *) printf '{\"id\":%s,\"throughput\":1.0}\\n' \"$id\" ;;\n  esac\ndone\n",
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let mut spec = ExternalSpec::parse(
        "flaky",
        &format!("{} {}", script.display(), counter.display()),
    )
    .unwrap();
    spec.breaker = BreakerSpec {
        threshold: 2,
        cooldown: 2,
    };
    let ext = ExternalPredictor::new(spec);
    let ab = AnnotatedBlock::new(Block::from_hex("4801c8").unwrap(), Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    let (mut opens, mut crashes, mut oks) = (0u32, 0u32, 0u32);
    for _ in 0..24 {
        match ext.predict(&req) {
            Ok(_) => oks += 1,
            Err(PredictError::ExternalCircuitOpen { tool, .. }) => {
                assert_eq!(tool, "ext:flaky");
                opens += 1;
            }
            Err(PredictError::ExternalCrashed { detail, .. }) => {
                assert!(!detail.contains("gave up"), "breaker must replace give-up");
                crashes += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(opens >= 3, "breaker never failed fast ({opens} open rows)");
    assert!(crashes >= 2, "expected real failures, saw {crashes}");
    assert!(oks >= 1, "the probe never closed the breaker");
    assert!(ext.breaker_trips() >= 2);
    assert!(!ext.breaker_open(), "breaker must close after a success");
    // Once closed, requests flow normally again (served from cache here).
    assert!(ext.predict(&req).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tool_level_error_replies_do_not_kill_the_tool() {
    // A reply with {"error": ...} is a healthy tool refusing one block:
    // it maps to InvalidOutput and the subprocess stays up.
    let dir = std::env::temp_dir().join(format!("facile-ext-errtool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("errtool.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\nwhile read line; do\n  id=${line#*\\\"id\\\":}; id=${id%%,*}; id=${id%%\\}*}\n  case \"$line\" in\n    *version*) printf '{\"id\":%s,\"version\":\"err-1\"}\\n' \"$id\" ;;\n    *) printf '{\"id\":%s,\"error\":\"boom\"}\\n' \"$id\" ;;\n  esac\ndone\n",
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let ext =
        ExternalPredictor::new(ExternalSpec::parse("errtool", script.to_str().unwrap()).unwrap());
    let ab = AnnotatedBlock::new(Block::from_hex("4801c8").unwrap(), Uarch::Skl);
    let req = facile_engine::PredictRequest::new(&ab, facile_core::Mode::Unrolled);
    for _ in 0..3 {
        match ext.predict(&req) {
            Err(PredictError::InvalidOutput {
                predictor, value, ..
            }) => {
                assert_eq!(predictor, "ext:errtool");
                assert_eq!(value, "boom");
            }
            other => panic!("expected InvalidOutput, got {other:?}"),
        }
    }
    assert_eq!(ext.restarts(), 0, "error replies must not trigger restarts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selector_definitions_register_and_predict() {
    let mut engine = Engine::with_builtins().with_threads(1);
    let selector = format!("facile,ext:mock={MOCK} --mode constant-offset --offset 2.0");
    let rewritten =
        facile_engine::register_selector_externals(engine.registry_mut(), &selector).unwrap();
    assert_eq!(rewritten, "facile,ext:mock");
    let items = [BatchItem::hex("4801c8", Uarch::Skl)];
    let rows = engine.predict_batch(&items, &rewritten).unwrap();
    let facile_tp = rows[0].prediction.as_ref().unwrap().throughput;
    let mock_tp = rows[1].prediction.as_ref().unwrap().throughput;
    assert!(
        (mock_tp - facile_tp - 2.0).abs() < 1e-9,
        "{facile_tp} vs {mock_tp}"
    );
}

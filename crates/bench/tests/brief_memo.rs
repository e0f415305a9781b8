//! The cached engine keeps each `Ok` Brief row beside its annotation and
//! answers a warm unit from there. These tests hold it to the contract
//! of a pure memoization: warm rows are byte-identical to cold rows and
//! to an engine without a cache, at 1, 2 and 8 threads and under a
//! tiny byte budget; a warm unit runs no model; a re-registered key
//! never gets the old predictor's rows; external tools are never
//! memoized; and the predict fault points still fire on warm units.
//!
//! Fault state is process-global, so every test serializes on [`GATE`].

use facile_core::Mode;
use facile_engine::render::write_row_json;
use facile_engine::{
    BatchItem, Detail, Engine, ExternalPredictor, ExternalSpec, ItemResult, PredictError,
    PredictRequest, Prediction, Predictor, PredictorRegistry,
};
use facile_uarch::Uarch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const MOCK: &str = env!("CARGO_BIN_EXE_mock_predictor");
const SELECTOR: &str = "facile,iaca,osaca";

static GATE: Mutex<()> = Mutex::new(());

/// Hold the gate with faults cleared.
fn gate() -> MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    facile_faults::install_quiet_panic_hook();
    facile_faults::clear();
    guard
}

fn registry() -> PredictorRegistry {
    let builtins = PredictorRegistry::with_builtins();
    let mut r = PredictorRegistry::new();
    for key in SELECTOR.split(',') {
        r.register(builtins.get(key).expect("builtin key"));
    }
    r
}

/// Rows as the server and the CLI print them, one JSON line each.
fn text(rows: &[ItemResult]) -> String {
    let mut out = String::new();
    for r in rows {
        write_row_json(&mut out, r);
        out.push('\n');
    }
    out
}

/// Hex and shared-block items on three uarchs, auto and fixed notions,
/// with repeats, one Full-detail item and two inputs that fail.
fn items() -> Vec<BatchItem> {
    let suite = facile_bhive::generate_suite(32, 29);
    let mut items = Vec::new();
    for (k, b) in suite.iter().enumerate() {
        items.push(BatchItem::hex(b.unrolled.to_hex(), Uarch::Skl));
        items.push(BatchItem::shared(Arc::new(b.looped.clone()), Uarch::Icl));
        let mode = if k % 2 == 0 {
            Mode::Loop
        } else {
            Mode::Unrolled
        };
        items.push(BatchItem::hex(b.looped.to_hex(), Uarch::Hsw).with_mode(mode));
    }
    items.extend(items[..12].to_vec());
    items.push(BatchItem::hex(suite[0].unrolled.to_hex(), Uarch::Skl).with_detail(Detail::Full));
    items.push(BatchItem::hex("zz", Uarch::Skl));
    items.push(BatchItem::hex("", Uarch::Skl));
    items
}

fn pass(engine: &Engine, items: &[BatchItem], selector: &str) -> String {
    text(
        &engine
            .predict_batch(items, selector)
            .expect("selector resolves"),
    )
}

#[test]
fn warm_rows_equal_cold_and_uncached_rows() {
    let _gate = gate();
    let items = items();
    let reference = pass(
        &Engine::new(registry()).without_cache().with_threads(1),
        &items,
        SELECTOR,
    );
    assert!(reference.contains("\"status\":\"ok\""));
    for threads in [1, 2, 8] {
        for budget in [None, Some(8 << 10)] {
            let engine = Engine::new(registry()).with_threads(threads);
            if let Some(bytes) = budget {
                engine.cache().expect("a cached engine").set_capacity(bytes);
            }
            for k in 0..3 {
                assert_eq!(
                    pass(&engine, &items, SELECTOR),
                    reference,
                    "pass {k} at {threads} threads, budget {budget:?}"
                );
            }
            let evictions = engine.snapshot().annotation.evictions;
            assert_eq!(budget.is_some(), evictions > 0, "{evictions} evictions");
        }
    }
}

/// A predictor that counts its calls and answers the block's length.
struct Counting {
    key: &'static str,
    calls: AtomicUsize,
}

impl Predictor for Counting {
    fn key(&self) -> &str {
        self.key
    }
    fn name(&self) -> &str {
        "Counting"
    }
    fn predict(&self, req: &PredictRequest<'_>) -> Result<Prediction, PredictError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        Ok(Prediction::plain(req.block().byte_len() as f64))
    }
}

#[test]
fn warm_brief_units_run_no_model() {
    let _gate = gate();
    let items = items();
    for cached in [true, false] {
        let counting = Arc::new(Counting {
            key: "counting",
            calls: AtomicUsize::new(0),
        });
        let mut r = PredictorRegistry::new();
        r.register(Arc::clone(&counting) as Arc<dyn Predictor>);
        let engine = Engine::new(r).with_threads(2);
        let engine = if cached {
            engine
        } else {
            engine.without_cache()
        };
        let cold = pass(&engine, &items, "counting");
        let cold_calls = counting.calls.swap(0, Ordering::Relaxed);
        assert!(cold_calls > 0);
        assert_eq!(pass(&engine, &items, "counting"), cold);
        // Only the Full-detail unit calls the model again on a cache.
        let warm_calls = counting.calls.load(Ordering::Relaxed);
        let expected = if cached { 1 } else { cold_calls };
        assert_eq!(warm_calls, expected, "cached = {cached}");
    }
}

/// A predictor that answers one fixed value.
struct Fixed(f64);

impl Predictor for Fixed {
    fn key(&self) -> &str {
        "fixed"
    }
    fn name(&self) -> &str {
        "Fixed"
    }
    fn predict(&self, _: &PredictRequest<'_>) -> Result<Prediction, PredictError> {
        Ok(Prediction::plain(self.0))
    }
}

#[test]
fn a_re_registered_key_never_gets_the_old_rows() {
    let _gate = gate();
    let items: Vec<BatchItem> = items().into_iter().take(24).collect();
    let mut engine = Engine::new(PredictorRegistry::new()).with_threads(2);
    for round in 1..=20 {
        // The registry holds the only handle, so the replaced predictor
        // is dropped here and its allocation is free for the next one.
        engine
            .registry_mut()
            .register(Arc::new(Fixed(f64::from(round))));
        for _ in 0..2 {
            let rows = engine.predict_batch(&items, "fixed").expect("registered");
            for r in &rows {
                let p = r.prediction.as_ref().expect("fixed always answers");
                assert_eq!(p.throughput, f64::from(round), "round {round}");
            }
        }
    }
}

fn with_mock(mode: &str) -> Engine {
    let mut r = registry();
    let spec = ExternalSpec::parse("mock", &format!("{MOCK} --mode {mode}")).expect("spec parses");
    r.register(Arc::new(ExternalPredictor::new(spec)));
    // One worker: the order of a failing tool's requests decides where
    // its breaker opens.
    Engine::new(r).with_threads(1)
}

#[test]
fn external_rows_are_never_memoized() {
    let _gate = gate();
    let items: Vec<BatchItem> = items().into_iter().take(9).collect();
    let selector = "facile,ext:mock";

    // A tool that crashes on every request: its breaker moves on from
    // pass to pass, the same with a cache as without one.
    let (cached, uncached) = (
        with_mock("crash-after=0"),
        with_mock("crash-after=0").without_cache(),
    );
    for k in 0..3 {
        let rows = pass(&cached, &items, selector);
        assert_eq!(rows, pass(&uncached, &items, selector), "pass {k}");
        assert!(rows.contains("external-"), "pass {k}");
    }

    // A tool that answered: a warm pass still asks the adapter, so a
    // fault injected there shows, while the builtin rows stay warm.
    let engine = with_mock("echo-facile");
    let warm = engine.predict_batch(&items, selector).expect("resolves");
    assert!(warm.iter().all(|r| r.prediction.is_ok()));
    facile_faults::configure("seed=1,ext-crash=1.0").expect("spec parses");
    let faulted = engine.predict_batch(&items, selector).expect("resolves");
    facile_faults::clear();
    for (before, after) in warm.iter().zip(&faulted) {
        match &*after.predictor {
            "facile" => assert_eq!(
                text(std::slice::from_ref(before)),
                text(std::slice::from_ref(after))
            ),
            _ => assert_eq!(
                after.prediction.as_ref().map_err(PredictError::code),
                Err("external-crashed")
            ),
        }
    }
}

#[test]
fn predict_faults_fire_on_warm_units() {
    let _gate = gate();
    let items = items();
    let warm = Engine::new(registry()).with_threads(2);
    let clean = pass(&warm, &items, SELECTOR);
    for (spec, code) in [
        ("seed=3,predict-error=0.5", "injected-fault"),
        ("seed=3,predict-panic=0.5", "internal-panic"),
    ] {
        facile_faults::configure(spec).expect("spec parses");
        let faulted = pass(&warm, &items, SELECTOR);
        let uncached = pass(
            &Engine::new(registry()).without_cache().with_threads(2),
            &items,
            SELECTOR,
        );
        facile_faults::clear();
        assert_eq!(faulted, uncached, "{spec}");
        assert!(faulted.contains(code), "{spec}");
        assert_ne!(faulted, clean, "{spec}");
    }
    // Faults off again: the kept rows were not disturbed.
    assert_eq!(pass(&warm, &items, SELECTOR), clean);

    let one = [items[0].clone()];
    facile_faults::configure("seed=3,slow-predict=1.0,slow-ms=40").expect("spec parses");
    let t0 = Instant::now();
    let slow = pass(&warm, &one, "facile");
    let elapsed = t0.elapsed();
    facile_faults::clear();
    assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
    assert!(slow.contains("\"status\":\"ok\""));
}

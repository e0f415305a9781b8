//! # facile-faults
//!
//! Deterministic, seeded fault injection for chaos-testing the facile
//! pipeline. The engine and server layers call the hooks in this crate
//! at well-known *injection points* (decode, annotate, predict,
//! connection handling, batcher loop, external tools); each hook
//! decides — purely as a function of the configured seed and the item
//! being processed — whether to inject a fault at that point.
//!
//! Two decision modes keep chaos runs reproducible:
//!
//! * **Content-keyed** ([`decide`]): the verdict hashes `(seed, point,
//!   key)` where `key` is the bytes of the item (e.g. the block being
//!   predicted). The same item is faulted on every run and on every
//!   thread interleaving, so a chaos run's "good rows" are byte-identical
//!   to a fault-free run over the non-faulted items.
//! * **Occurrence-keyed** ([`decide_seq`]): the verdict hashes `(seed,
//!   point, n)` for the n-th arrival at that point. Used where there is
//!   no stable content key (connection drops, batcher panics) and where
//!   content keying would be wrong — a content-keyed connection drop
//!   would make every retry of the same request fail forever.
//!
//! ## Zero cost when disabled
//!
//! The whole mechanism sits behind the `injection` cargo feature, which
//! is **off by default**. Without it every public function compiles to an
//! inlineable no-op — release binaries carry no fault-injection code at
//! all. Test builds turn the feature on via dev-dependency feature
//! unification, and the CI chaos-smoke job builds the CLI with
//! `--features fault-injection` explicitly.
//!
//! ## Spec strings
//!
//! Faults are configured from a compact spec string (env var
//! `FACILE_FAULTS`, the `facile serve --faults` flag, or
//! programmatically via [`configure`]):
//!
//! ```text
//! seed=42,predict-panic=0.01,conn-drop=0.05,slow-predict=0.02,slow-ms=2
//! ```
//!
//! Each `<point>=<rate>` entry sets the injection probability (0.0–1.0)
//! for that point; `seed` picks the deterministic universe and `slow-ms`
//! sets the delay injected by `slow-predict`.

#![warn(missing_docs)]

/// Marker embedded in every injected panic payload. The quiet panic hook
/// (see [`install_quiet_panic_hook`]) suppresses payloads containing it,
/// and tests assert on it to distinguish injected panics from real bugs.
pub const PANIC_MARKER: &str = "facile-faults: injected panic";

/// An injection point: a named site in the pipeline where a fault can be
/// introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Panic inside block decoding (the engine preparing a unit).
    DecodePanic,
    /// Panic inside block annotation (the engine preparing a unit).
    AnnotatePanic,
    /// Panic inside a predictor call.
    PredictPanic,
    /// A predictor returns an error instead of a prediction.
    PredictError,
    /// A predictor call is delayed by `slow-ms` milliseconds.
    SlowPredict,
    /// The server drops a connection before processing a request line.
    ConnDrop,
    /// The server's batcher thread panics between batches.
    BatcherPanic,
    /// An external-predictor request times out (the adapter reports
    /// `ExternalTimeout` without touching the subprocess).
    ExtTimeout,
    /// An external-predictor request observes a crashed subprocess (the
    /// adapter reports `ExternalCrashed` without touching the
    /// subprocess).
    ExtCrash,
}

impl Point {
    /// All injection points, in spec-key order.
    pub const ALL: [Point; 9] = [
        Point::DecodePanic,
        Point::AnnotatePanic,
        Point::PredictPanic,
        Point::PredictError,
        Point::SlowPredict,
        Point::ConnDrop,
        Point::BatcherPanic,
        Point::ExtTimeout,
        Point::ExtCrash,
    ];

    /// The spec-string key for this point.
    pub fn name(self) -> &'static str {
        match self {
            Point::DecodePanic => "decode-panic",
            Point::AnnotatePanic => "annotate-panic",
            Point::PredictPanic => "predict-panic",
            Point::PredictError => "predict-error",
            Point::SlowPredict => "slow-predict",
            Point::ConnDrop => "conn-drop",
            Point::BatcherPanic => "batcher-panic",
            Point::ExtTimeout => "ext-timeout",
            Point::ExtCrash => "ext-crash",
        }
    }

    #[allow(dead_code)]
    fn index(self) -> usize {
        self as usize
    }
}

/// Whether fault injection was compiled into this binary. `false` in
/// default builds; [`configure`] is a no-op returning `Ok(false)` then.
pub fn compiled() -> bool {
    cfg!(feature = "injection")
}

#[cfg(feature = "injection")]
mod imp {
    use super::{Point, PANIC_MARKER};
    use std::hash::Hasher;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Once, RwLock};
    use std::time::Duration;

    const POINTS: usize = Point::ALL.len();
    const PPM: u64 = 1_000_000;

    struct Config {
        spec: String,
        seed: u64,
        /// Injection rate per point, in parts-per-million.
        rates: [u32; POINTS],
        slow: Duration,
    }

    static STATE: RwLock<Option<Config>> = RwLock::new(None);
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static SEQ: [AtomicU64; POINTS] = [ZERO; POINTS];

    fn parse(spec: &str) -> Result<Config, String> {
        let mut cfg = Config {
            spec: spec.to_string(),
            seed: 0,
            rates: [0; POINTS],
            slow: Duration::from_millis(1),
        };
        let mut any = false;
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {tok:?} is not key=value"))?;
            match key {
                "seed" => {
                    cfg.seed = val
                        .parse()
                        .map_err(|_| format!("bad seed {val:?}: expected an unsigned integer"))?;
                }
                "slow-ms" => {
                    let ms: u64 = val
                        .parse()
                        .map_err(|_| format!("bad slow-ms {val:?}: expected milliseconds"))?;
                    cfg.slow = Duration::from_millis(ms);
                }
                _ => {
                    let point = Point::ALL
                        .iter()
                        .find(|p| p.name() == key)
                        .ok_or_else(|| format!("unknown fault key {key:?}"))?;
                    let rate: f64 = val
                        .parse()
                        .map_err(|_| format!("bad rate {val:?} for {key}: expected 0.0..=1.0"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("rate {rate} for {key} is outside 0.0..=1.0"));
                    }
                    cfg.rates[point.index()] = (rate * PPM as f64).round() as u32;
                    any = true;
                }
            }
        }
        if !any {
            return Err("fault spec enables no injection points".to_string());
        }
        Ok(cfg)
    }

    pub fn configure(spec: &str) -> Result<bool, String> {
        let cfg = parse(spec)?;
        let mut state = STATE.write().unwrap_or_else(|e| e.into_inner());
        for seq in &SEQ {
            seq.store(0, Ordering::Relaxed);
        }
        ACTIVE.store(true, Ordering::Release);
        *state = Some(cfg);
        Ok(true)
    }

    pub fn clear() {
        let mut state = STATE.write().unwrap_or_else(|e| e.into_inner());
        ACTIVE.store(false, Ordering::Release);
        *state = None;
    }

    pub fn active() -> bool {
        ACTIVE.load(Ordering::Acquire)
    }

    pub fn spec() -> Option<String> {
        let state = STATE.read().unwrap_or_else(|e| e.into_inner());
        state.as_ref().map(|c| c.spec.clone())
    }

    fn hit(seed: u64, point: Point, key: &[u8], rate_ppm: u32) -> bool {
        if rate_ppm == 0 {
            return false;
        }
        let mut h = facile_util::FxHasher::default();
        h.write_u64(seed);
        h.write_u8(point.index() as u8);
        h.write(key);
        h.finish() % PPM < u64::from(rate_ppm)
    }

    pub fn decide(point: Point, key: &[u8]) -> bool {
        if !active() {
            return false;
        }
        let state = STATE.read().unwrap_or_else(|e| e.into_inner());
        match state.as_ref() {
            Some(cfg) => hit(cfg.seed, point, key, cfg.rates[point.index()]),
            None => false,
        }
    }

    pub fn decide_seq(point: Point) -> bool {
        if !active() {
            return false;
        }
        let state = STATE.read().unwrap_or_else(|e| e.into_inner());
        match state.as_ref() {
            Some(cfg) if cfg.rates[point.index()] > 0 => {
                let n = SEQ[point.index()].fetch_add(1, Ordering::Relaxed);
                hit(cfg.seed, point, &n.to_le_bytes(), cfg.rates[point.index()])
            }
            _ => false,
        }
    }

    pub fn slow_predict_delay(key: &[u8]) -> Option<Duration> {
        if !active() {
            return None;
        }
        let state = STATE.read().unwrap_or_else(|e| e.into_inner());
        let cfg = state.as_ref()?;
        hit(
            cfg.seed,
            Point::SlowPredict,
            key,
            cfg.rates[Point::SlowPredict.index()],
        )
        .then_some(cfg.slow)
    }

    pub fn install_quiet_panic_hook() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    // Injected panics *begin* with the marker; merely
                    // mentioning it (say, a test assertion quoting an
                    // `internal-panic` reply) must still be reported.
                    .is_some_and(|s| s.starts_with(PANIC_MARKER));
                if !injected {
                    prev(info);
                }
            }));
        });
    }
}

#[cfg(not(feature = "injection"))]
mod imp {
    use super::Point;
    use std::time::Duration;

    #[inline(always)]
    pub fn configure(_spec: &str) -> Result<bool, String> {
        Ok(false)
    }
    #[inline(always)]
    pub fn clear() {}
    #[inline(always)]
    pub fn active() -> bool {
        false
    }
    #[inline(always)]
    pub fn spec() -> Option<String> {
        None
    }
    #[inline(always)]
    pub fn decide(_point: Point, _key: &[u8]) -> bool {
        false
    }
    #[inline(always)]
    pub fn decide_seq(_point: Point) -> bool {
        false
    }
    #[inline(always)]
    pub fn slow_predict_delay(_key: &[u8]) -> Option<Duration> {
        None
    }
    #[inline(always)]
    pub fn install_quiet_panic_hook() {}
}

/// Arm fault injection from a spec string (see the crate docs for the
/// grammar). Returns `Ok(true)` if injection is now active, `Ok(false)`
/// if this binary was built without the `injection` feature (the spec is
/// ignored), and `Err` if the spec is malformed. Reconfiguring resets
/// all occurrence counters, so runs are reproducible from any
/// `configure` call.
pub fn configure(spec: &str) -> Result<bool, String> {
    imp::configure(spec)
}

/// Arm fault injection from the `FACILE_FAULTS` environment variable.
/// Returns `Ok(false)` when the variable is unset or injection is not
/// compiled in.
pub fn configure_from_env() -> Result<bool, String> {
    match std::env::var("FACILE_FAULTS") {
        Ok(spec) if !spec.is_empty() => configure(&spec),
        _ => Ok(false),
    }
}

/// Disarm fault injection. Subsequent decisions all come back `false`.
pub fn clear() {
    imp::clear()
}

/// Whether fault injection is currently armed.
pub fn active() -> bool {
    imp::active()
}

/// The currently armed spec string, if any (for logging).
pub fn spec() -> Option<String> {
    imp::spec()
}

/// Content-keyed decision: should a fault fire at `point` for the item
/// identified by `key`? Deterministic in `(seed, point, key)` — the same
/// item gets the same verdict on every run and thread interleaving.
pub fn decide(point: Point, key: &[u8]) -> bool {
    imp::decide(point, key)
}

/// Occurrence-keyed decision: should a fault fire at the n-th arrival at
/// `point`? Deterministic in `(seed, point, n)`.
pub fn decide_seq(point: Point) -> bool {
    imp::decide_seq(point)
}

/// Panic with the injected-fault marker if [`decide`] fires for
/// `(point, key)`.
pub fn maybe_panic(point: Point, key: &[u8]) {
    if decide(point, key) {
        panic!("{PANIC_MARKER} at {}", point.name());
    }
}

/// Panic with the injected-fault marker if [`decide_seq`] fires at
/// `point`.
pub fn maybe_panic_seq(point: Point) {
    if decide_seq(point) {
        panic!("{PANIC_MARKER} at {}", point.name());
    }
}

/// The delay to inject for this predictor call, if the `slow-predict`
/// point fires for `key`.
pub fn slow_predict_delay(key: &[u8]) -> Option<std::time::Duration> {
    imp::slow_predict_delay(key)
}

/// Install a process-wide panic hook that suppresses the default
/// "thread panicked" stderr noise for *injected* panics (payloads
/// containing [`PANIC_MARKER`]) while forwarding every real panic to the
/// previous hook. Idempotent; a no-op without the `injection` feature.
pub fn install_quiet_panic_hook() {
    imp::install_quiet_panic_hook()
}

#[cfg(all(test, feature = "injection"))]
mod tests {
    use super::*;

    /// Serialize tests that touch the process-global fault state.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        let _g = guard(); // its closing `clear()` must not disarm another test
        for bad in [
            "",
            "predict-panic",
            "predict-panic=nope",
            "predict-panic=1.5",
            "warp-core=0.5",
            "seed=-3",
        ] {
            assert!(configure(bad).is_err(), "spec {bad:?} should be rejected");
        }
        clear();
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let _g = guard();
        assert!(configure("seed=42,predict-panic=0.5").unwrap());
        let keys: Vec<Vec<u8>> = (0u32..512).map(|i| i.to_le_bytes().to_vec()).collect();
        let first: Vec<bool> = keys
            .iter()
            .map(|k| decide(Point::PredictPanic, k))
            .collect();
        let second: Vec<bool> = keys
            .iter()
            .map(|k| decide(Point::PredictPanic, k))
            .collect();
        assert_eq!(first, second, "content-keyed decisions are stable");
        let hits = first.iter().filter(|h| **h).count();
        assert!(
            (128..=384).contains(&hits),
            "a 50% rate should hit roughly half of 512 keys, got {hits}"
        );

        assert!(configure("seed=43,predict-panic=0.5").unwrap());
        let reseeded: Vec<bool> = keys
            .iter()
            .map(|k| decide(Point::PredictPanic, k))
            .collect();
        assert_ne!(first, reseeded, "a different seed picks different items");
        clear();
        assert!(keys.iter().all(|k| !decide(Point::PredictPanic, k)));
    }

    #[test]
    fn points_are_independent() {
        let _g = guard();
        assert!(configure("seed=7,decode-panic=1.0").unwrap());
        assert!(decide(Point::DecodePanic, b"x"));
        assert!(!decide(Point::PredictPanic, b"x"));
        assert!(!decide_seq(Point::ConnDrop));
        clear();
    }

    #[test]
    fn seq_decisions_reset_on_configure() {
        let _g = guard();
        assert!(configure("seed=1,conn-drop=0.5").unwrap());
        let a: Vec<bool> = (0..64).map(|_| decide_seq(Point::ConnDrop)).collect();
        assert!(configure("seed=1,conn-drop=0.5").unwrap());
        let b: Vec<bool> = (0..64).map(|_| decide_seq(Point::ConnDrop)).collect();
        assert_eq!(a, b, "occurrence counters reset with the config");
        assert!(a.iter().any(|h| *h) && a.iter().any(|h| !*h));
        clear();
    }

    #[test]
    fn slow_predict_uses_configured_delay() {
        let _g = guard();
        assert!(configure("seed=5,slow-predict=1.0,slow-ms=3").unwrap());
        assert_eq!(
            slow_predict_delay(b"k"),
            Some(std::time::Duration::from_millis(3))
        );
        clear();
        assert_eq!(slow_predict_delay(b"k"), None);
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let _g = guard();
        assert!(configure("seed=9,predict-panic=1.0").unwrap());
        let err = std::panic::catch_unwind(|| maybe_panic(Point::PredictPanic, b"k"))
            .expect_err("a 100% rate always panics");
        let msg = err
            .downcast_ref::<String>()
            .expect("injected payloads are Strings");
        assert!(msg.contains(PANIC_MARKER), "{msg}");
        clear();
    }
}

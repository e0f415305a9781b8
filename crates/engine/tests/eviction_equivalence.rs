//! Eviction-equivalence proptests: an absurdly small annotation-cache
//! budget forces constant evict-and-recompute, and every recomputed row
//! must be **byte-identical** to the unbounded run — at 1 and 8 worker
//! threads. Eviction may only change *when* work is redone, never any
//! bit of any row. Plus decode-path panic freedom: arbitrary bytes
//! through the cached decode path produce typed errors, never panics.

use facile_engine::{BatchItem, BlockInput, Detail, Engine, PredictError, PredictorRegistry};
use facile_uarch::Uarch;
use proptest::prelude::*;

/// The Facile predictor alone: the slower builtins (the simulator, the
/// lazily-trained learned rows) share the same annotation cache, so
/// they add runtime to the proptest loop without adding cache coverage.
fn analytic_registry() -> PredictorRegistry {
    let mut r = PredictorRegistry::new();
    let full = PredictorRegistry::with_builtins();
    r.register(full.get("facile").expect("builtin key"));
    r
}

fn render(rows: &[facile_engine::ItemResult]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let outcome = match &r.prediction {
                Ok(p) => format!("{:x}|{:?}", p.throughput.to_bits(), p.bottleneck),
                Err(e) => format!("err:{}", e.code()),
            };
            format!(
                "{}|{}|{}|{:?}|{}|{outcome}",
                r.item, r.block_hex, r.uarch, r.mode, r.predictor
            )
        })
        .collect()
}

/// A batch wide enough to overflow a few-KiB cache: distinct generated
/// blocks across uarchs, with repeats so survivors get cache hits and
/// evicted entries are recomputed.
fn wide_items(distinct: usize, len: usize, salt: u64) -> Vec<BatchItem> {
    let suite = facile_bhive::generate_suite(distinct.max(1), 1000 + salt);
    let uarchs = [Uarch::Skl, Uarch::Hsw, Uarch::Icl];
    (0..len)
        .map(|i| {
            let r = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(salt);
            let b = &suite[(r / 5) as usize % suite.len()];
            let block = if r.is_multiple_of(2) {
                &b.unrolled
            } else {
                &b.looped
            };
            BatchItem::block(block.clone(), uarchs[(r / 3) as usize % 3])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unbounded vs a 16 KiB cache × 1 vs 8 threads: identical rows.
    #[test]
    fn eviction_never_changes_any_row(
        distinct in 8usize..24,
        len in 16usize..96,
        salt in 0u64..500,
    ) {
        let items = wide_items(distinct, len, salt);
        let unbounded = Engine::new(analytic_registry()).with_threads(1);
        let expected = render(&unbounded.predict_batch(&items, "*").expect("glob resolves"));
        let mut evicted_somewhere = false;
        for threads in [1usize, 8] {
            let engine = Engine::new(analytic_registry()).with_threads(threads);
            engine.cache().expect("a cached engine").set_capacity(16 << 10);
            // Two passes: the second re-annotates whatever the first
            // evicted, so recomputed rows are compared too.
            for pass in 0..2 {
                let rows = engine.predict_batch(&items, "*").expect("glob resolves");
                prop_assert_eq!(
                    &render(&rows),
                    &expected,
                    "threads={} pass={}", threads, pass
                );
            }
            let stats = engine.cache().expect("a cached engine").stats();
            prop_assert!(stats.bytes <= 16 << 10, "cache over budget: {} bytes", stats.bytes);
            evicted_somewhere |= stats.evictions > 0;
        }
        // Dozens of distinct multi-instruction blocks cannot fit 16 KiB.
        if distinct >= 16 && len >= 64 {
            prop_assert!(evicted_somewhere, "the tight cache never evicted");
        }
    }

    /// Arbitrary bytes through the cached decode path: `Ok` or a typed
    /// `DecodeError`, never a panic — and the outcome is stable across
    /// cache states (cold, warm, evicted).
    #[test]
    fn cached_decode_is_panic_free_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let engine = Engine::new(analytic_registry()).with_threads(1);
        engine.cache().expect("a cached engine").set_capacity(4 << 10);
        let item = BatchItem {
            input: BlockInput::Bytes(bytes.clone()),
            uarch: Uarch::Skl,
            mode: None,
            detail: Detail::Brief,
        };
        // The decode outcome: the canonical hex of a block that decoded
        // (its notion is resolved), else the typed error.
        let decode = || {
            let rows = engine
                .predict_batch(std::slice::from_ref(&item), "facile")
                .expect("selector resolves");
            match (&rows[0].mode, &rows[0].prediction) {
                (None, Err(e)) => Err(e.clone()),
                _ => Ok(rows[0].block_hex.to_string()),
            }
        };
        let first = decode();
        let second = decode();
        // The engine contains panics per unit, so a decoder panic comes
        // back as an `internal-panic` row rather than unwinding here.
        if let Err(e @ PredictError::Panicked { .. }) = &first {
            prop_assert!(false, "decode panicked: {}", e);
        }
        prop_assert_eq!(&first, &second, "decode outcome changed on a warm cache");
        if let Ok(hex) = &first {
            let want: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(hex, &want);
        }
    }

    /// Arbitrary strings as request hex: the engine answers every item
    /// with an ok row or a typed error row — no panics, no missing rows.
    #[test]
    fn arbitrary_hex_inputs_become_typed_rows(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24),
            1..12,
        ),
    ) {
        let engine = Engine::new(analytic_registry()).with_threads(2);
        engine.cache().expect("a cached engine").set_capacity(4 << 10);
        // Map raw bytes onto printable ASCII so both valid hex digits
        // and junk characters appear in the request strings.
        let alphabet: Vec<char> = ('0'..='9').chain('a'..='z').chain('A'..='Z').collect();
        let items: Vec<BatchItem> = inputs
            .iter()
            .map(|raw| {
                let h: String = raw
                    .iter()
                    .map(|&b| alphabet[b as usize % alphabet.len()])
                    .collect();
                BatchItem::hex(&h, Uarch::Skl)
            })
            .collect();
        let rows = engine.predict_batch(&items, "facile").expect("selector resolves");
        prop_assert_eq!(rows.len(), items.len());
        for r in &rows {
            if let Err(e) = &r.prediction {
                prop_assert!(!e.code().is_empty(), "untyped error: {e:?}");
            }
        }
    }
}

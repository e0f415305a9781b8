//! Property tests for the zero-allocation prediction pipeline.
//!
//! The batch hot path stacks several optimizations on top of the naive
//! per-prediction implementation: the build-time descriptor tables, the
//! scratch-arena analysis kernels, the brief (chain-free) Facile path,
//! and the chunked parallel map. None of them may change a single output
//! bit. These tests pit the optimized pipeline against the naive
//! reference path (`AnnotatedBlock::new_uninterned`, which classifies
//! every instruction with the runtime classifier and skips the tables, +
//! the full `Facile::predict`) across random blocks × all
//! microarchitectures × every builtin predictor, and pin down
//! determinism of the parallel map across thread counts.

use facile_core::Mode;
use facile_engine::{parallel_map_indexed, BatchItem, Engine, PredictRequest, PredictorRegistry};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use proptest::prelude::*;

/// A pseudo-random benchmark block: a seed-indexed pick from the BHive-like
/// generator (which covers loads, stores, chains, branches, LCP layouts).
fn any_block() -> impl Strategy<Value = facile_bhive::Bench> {
    (0u64..500, 0usize..8).prop_map(|(seed, idx)| {
        facile_bhive::generate_suite(idx + 1, 1000 + seed)
            .pop()
            .expect("suite is non-empty")
    })
}

fn any_uarch() -> impl Strategy<Value = Uarch> {
    (0usize..Uarch::ALL.len()).prop_map(|i| Uarch::ALL[i])
}

/// Builtins minus the lazily-trained learned rows (training in a proptest
/// loop would dominate the runtime; the learned rows share the exact same
/// request/annotation plumbing as the analytic ones).
fn analytic_registry() -> PredictorRegistry {
    let mut r = PredictorRegistry::new();
    let full = PredictorRegistry::with_builtins();
    for key in ["facile", "sim", "iaca", "osaca", "llvm-mca", "cqa"] {
        r.register(full.get(key).expect("builtin key"));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine pipeline (table-served annotations, scratch arenas,
    /// brief predict) must be *bit*-identical to the naive reference path on
    /// every `(block, mode) × uarch × predictor` combination.
    #[test]
    fn engine_rows_match_naive_reference(bench in any_block(), uarch in any_uarch()) {
        let engine = Engine::new(analytic_registry()).with_threads(1);
        let predictors = engine.registry().resolve("*").expect("glob resolves");
        for (block, mode) in [
            (&bench.unrolled, Mode::Unrolled),
            (&bench.looped, Mode::Loop),
        ] {
            if block.is_empty() {
                continue;
            }
            let items = [BatchItem::block(block.clone(), uarch).with_mode(mode)];
            let rows = engine.run_batch(&items, &predictors);
            prop_assert_eq!(rows.len(), predictors.len());

            // Naive reference: classify every instruction from scratch and
            // run each predictor on the table-free annotation.
            let naive = AnnotatedBlock::new_uninterned(block.clone(), uarch);
            for (row, p) in rows.iter().zip(&predictors) {
                let reference = p.predict(&PredictRequest::new(&naive, mode));
                match (&row.prediction, &reference) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(
                            got.throughput.to_bits(),
                            want.throughput.to_bits(),
                            "{} on {}: {} vs {}",
                            p.key(), uarch, got.throughput, want.throughput
                        );
                        prop_assert_eq!(&got.bottleneck, &want.bottleneck);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.code(), b.code()),
                    (got, want) => prop_assert!(
                        false,
                        "{} on {uarch}: engine {got:?} vs reference {want:?}",
                        p.key()
                    ),
                }
            }

            // The brief (evidence-free) Facile path must also match the
            // full explanation bit for bit: same throughput, same bounds,
            // same bottleneck set under the tie break.
            let full = facile_core::Facile::new().explain(&naive, mode);
            let brief = facile_core::Facile::new().predict_brief(&naive, mode);
            prop_assert_eq!(full.throughput.to_bits(), brief.throughput.to_bits());
            let full_bounds: Vec<_> =
                full.components.iter().map(|a| (a.component, a.bound)).collect();
            prop_assert_eq!(&full_bounds, &brief.bounds);
            prop_assert_eq!(&full.bottlenecks, &brief.bottlenecks);
        }
    }

    /// The chunked parallel map must be a pure order-preserving map at any
    /// thread count, including chunk-boundary sizes.
    #[test]
    fn parallel_map_is_deterministic(n in 0usize..200, salt in 0u64..1000) {
        let f = |i: usize| (i as u64 * 2654435761) ^ salt;
        let expected: Vec<u64> = (0..n).map(f).collect();
        for threads in [1, 2, 8] {
            let got = parallel_map_indexed(n, threads, f);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
    }
}

/// Engine batch rows must be identical at 1, 2, and 8 worker threads —
/// the chunked disjoint-slice writes may not change ordering or content.
#[test]
fn batch_rows_identical_across_1_2_8_threads() {
    let suite = facile_bhive::generate_suite(60, 4242);
    let mut items = Vec::new();
    for b in &suite {
        for u in [Uarch::Skl, Uarch::Hsw, Uarch::Rkl] {
            items.push(BatchItem::block(b.unrolled.clone(), u));
            items.push(BatchItem::block(b.looped.clone(), u));
        }
    }
    items.push(BatchItem::hex("zz", Uarch::Skl)); // error rows too
    let render = |threads: usize| -> Vec<String> {
        let engine = Engine::new(analytic_registry()).with_threads(threads);
        engine
            .predict_batch(&items, "facile,sim,iaca")
            .expect("selector resolves")
            .into_iter()
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
    };
    let one = render(1);
    assert_eq!(one, render(2));
    assert_eq!(one, render(8));
}

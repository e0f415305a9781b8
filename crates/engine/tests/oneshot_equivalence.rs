//! One-shot engine equivalence: an engine built `without_cache()` must
//! give rows **byte-identical** to the default cached engine and to the
//! naive reference path (`AnnotatedBlock::new_uninterned` + each
//! predictor's `predict`), at 1, 2 and 8 worker threads, on job sizes
//! on both sides of the grouped-dealing threshold, with and without the
//! planner's dedup stage, for every input variant and every error input.
//! Under injected decode and annotate panics, the panicking unit's rows,
//! and only those, become `internal-panic` rows.
//!
//! Fault configuration is process-global, so every test in this file
//! serializes on [`GATE`] and starts from a cleared configuration.

use facile_core::Mode;
use facile_engine::render::row_json;
use facile_engine::{
    BatchItem, BlockInput, CacheStats, Engine, ItemResult, PredictRequest, PredictorRegistry,
};
use facile_explain::Detail;
use facile_faults::Point;
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    facile_faults::install_quiet_panic_hook();
    let g = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    facile_faults::clear();
    g
}

/// The analytic builtins: the learned rows train lazily and the
/// simulator runs cycle by cycle, either of which would dominate the
/// runtime, and both share the same batch plumbing.
const ANALYTIC: [&str; 5] = ["facile", "iaca", "osaca", "llvm-mca", "cqa"];

fn analytic_registry() -> PredictorRegistry {
    let mut r = PredictorRegistry::new();
    let full = PredictorRegistry::with_builtins();
    for key in ANALYTIC {
        r.register(full.get(key).expect("builtin key"));
    }
    r
}

/// Every bit of every row: its item index, its JSON rendering, and the
/// throughput's bits (the JSON prints four decimals).
fn render(rows: &[ItemResult]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let bits = r.prediction.as_ref().map(|p| p.throughput.to_bits());
            format!("{}|{}|{bits:x?}", r.item, row_json(r))
        })
        .collect()
}

/// The first `n` distinct non-empty blocks of `BlockStream(seed)`.
fn stream_blocks(seed: u64, n: usize) -> Vec<Block> {
    let mut seen = HashSet::new();
    facile_bhive::BlockStream::new(seed)
        .map(|g| g.block)
        .filter(|b| !b.is_empty() && seen.insert(b.bytes().to_vec()))
        .take(n)
        .collect()
}

/// `blocks × all uarchs` as hex items, as `facile --batch --all-uarchs`
/// builds them; every third block asks for the full explanation.
fn sweep_items(blocks: &[Block]) -> Vec<BatchItem> {
    blocks
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            let detail = if i % 3 == 0 {
                Detail::Full
            } else {
                Detail::Brief
            };
            let hex = b.to_hex();
            Uarch::ALL
                .iter()
                .map(move |&u| BatchItem::hex(hex.clone(), u).with_detail(detail))
        })
        .collect()
}

/// Rows of `items` on an uncached and a fresh cached engine, asserted
/// equal; the uncached engine's cache counters must stay zero.
fn both_engines(items: &[BatchItem], threads: usize, dedup: bool) -> Vec<String> {
    let oneshot = Engine::new(analytic_registry())
        .with_threads(threads)
        .with_dedup(dedup)
        .without_cache();
    let cached = Engine::new(analytic_registry())
        .with_threads(threads)
        .with_dedup(dedup);
    let got = render(&oneshot.predict_batch(items, "*").expect("glob resolves"));
    let want = render(&cached.predict_batch(items, "*").expect("glob resolves"));
    assert_eq!(got.len(), items.len() * ANALYTIC.len());
    assert_eq!(got, want, "threads={threads} dedup={dedup}");
    assert_eq!(oneshot.snapshot().annotation, CacheStats::default());
    got
}

/// The naive reference rows of `items` (every item a valid hex block).
fn reference_rows(items: &[BatchItem]) -> Vec<String> {
    let registry = analytic_registry();
    let predictors = registry.resolve("*").expect("glob resolves");
    let mut rows = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let BlockInput::Hex(h) = &item.input else {
            panic!("reference rows take hex items")
        };
        let block = Block::from_hex(h).expect("valid block");
        let mode = if block.ends_in_branch() {
            Mode::Loop
        } else {
            Mode::Unrolled
        };
        let naive = AnnotatedBlock::new_uninterned(block.clone(), item.uarch);
        for p in &predictors {
            rows.push(ItemResult {
                item: i,
                block_hex: block.to_hex().into(),
                uarch: item.uarch,
                mode: Some(mode),
                predictor: p.key().into(),
                prediction: p.predict(&PredictRequest::new(&naive, mode).with_detail(item.detail)),
            });
        }
    }
    render(&rows)
}

#[test]
fn stream_sweeps_match_the_cached_engine_and_the_naive_reference() {
    let _g = gate();
    // 2 blocks × 9 uarchs × 5 predictors = 90 indices deal in shrinking
    // chunks on every thread count; 24 blocks (1,080) take grouped
    // dealing on 2 and 8 threads.
    for (seed, blocks) in [(31, 2), (32, 24)] {
        let items = sweep_items(&stream_blocks(seed, blocks));
        let want = reference_rows(&items);
        for threads in [1, 2, 8] {
            assert_eq!(
                both_engines(&items, threads, true),
                want,
                "{blocks} blocks, {threads} threads"
            );
        }
    }
}

#[test]
fn duplicates_match_with_dedup_on_and_off() {
    let _g = gate();
    let blocks = stream_blocks(33, 4);
    // Repeated sweeps, a block's duplicates both adjacent and far apart.
    let mut items = sweep_items(&blocks);
    items.extend(sweep_items(&blocks[..2]));
    items.extend(sweep_items(&blocks[1..2]));
    let first = both_engines(&items, 1, false);
    for dedup in [false, true] {
        for threads in [1, 2, 8] {
            assert_eq!(both_engines(&items, threads, dedup), first);
        }
    }
}

#[test]
fn every_input_variant_and_error_input_matches() {
    let _g = gate();
    let blocks = stream_blocks(34, 3);
    let b = &blocks[0];
    let shared = Arc::new(b.clone());
    let mut items = Vec::new();
    for &u in &[Uarch::Skl, Uarch::Hsw, Uarch::Rkl] {
        // The same block in all four spellings, adjacent: a unit may
        // reuse the previous unit's decode only when the spelling is the
        // same.
        items.push(BatchItem::hex(b.to_hex(), u));
        items.push(BatchItem {
            input: BlockInput::Bytes(b.bytes().to_vec()),
            ..BatchItem::hex("", u)
        });
        items.push(BatchItem::block(b.clone(), u));
        items.push(BatchItem::shared(Arc::clone(&shared), u));
        items.push(BatchItem::hex(
            format!("  {}  ", b.to_hex().to_uppercase()),
            u,
        ));
        // Errors: bad hex, empty hex, undecodable bytes, empty blocks.
        items.push(BatchItem::hex("zz-not-hex", u));
        items.push(BatchItem::hex("", u));
        items.push(BatchItem::hex("06", u));
        items.push(BatchItem {
            input: BlockInput::Bytes(vec![0x06]),
            ..BatchItem::hex("", u)
        });
        items.push(BatchItem {
            input: BlockInput::Bytes(Vec::new()),
            ..BatchItem::hex("", u)
        });
        items.push(BatchItem::block(Block::decode(&[]).expect("empty"), u));
        items.push(BatchItem::hex(blocks[1].to_hex(), u).with_mode(Mode::Loop));
        items.push(BatchItem::shared(Arc::new(blocks[2].clone()), u).with_detail(Detail::Full));
    }
    let first = both_engines(&items, 1, true);
    for dedup in [false, true] {
        for threads in [1, 2, 8] {
            assert_eq!(both_engines(&items, threads, dedup), first);
        }
    }
    let codes: HashSet<&str> = first
        .iter()
        .filter_map(|r| r.split("\"code\":\"").nth(1))
        .filter_map(|e| e.split('"').next())
        .collect();
    for code in ["bad-hex", "decode-error", "empty-block"] {
        assert!(codes.contains(code), "no {code} row in {codes:?}");
    }
}

#[test]
fn injected_decode_and_annotate_panics_cost_only_their_units() {
    let _g = gate();
    assert!(facile_faults::compiled(), "needs the injection feature");
    let blocks = stream_blocks(35, 16);
    let items = sweep_items(&blocks);
    let clean = both_engines(&items, 2, true);
    for (point, spec) in [
        (Point::DecodePanic, "seed=9,decode-panic=0.3"),
        (Point::AnnotatePanic, "seed=9,annotate-panic=0.3"),
    ] {
        facile_faults::configure(spec).expect("spec parses");
        let hit: Vec<bool> = blocks
            .iter()
            .map(|b| facile_faults::decide(point, b.bytes()))
            .collect();
        assert!(hit.iter().any(|&h| h) && !hit.iter().all(|&h| h), "{spec}");
        for threads in [1, 2, 8] {
            let faulted = both_engines(&items, threads, true);
            for (k, (row, want)) in faulted.iter().zip(&clean).enumerate() {
                let block = k / (Uarch::ALL.len() * ANALYTIC.len());
                if hit[block] {
                    assert!(row.contains("\"code\":\"internal-panic\""), "{spec}: {row}");
                    assert!(row.contains(point.name()), "{spec}: {row}");
                } else {
                    assert_eq!(row, want, "{spec}, threads {threads}");
                }
            }
        }
        facile_faults::clear();
    }
}

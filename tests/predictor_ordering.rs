//! The Table 2 ordering claim at repository scale: Facile must beat every
//! non-simulation baseline on MAPE, and the simulation-based predictor
//! must be exact (it is the oracle).

use facile_baselines::{
    CqaLike, DiffTuneLike, FacilePredictor, IacaLike, IthemalLike, LearningBl, LlvmMcaLike,
    OsacaLike, Predictor, UicaLike,
};
use facile_bhive::{generate_suite, measure_block, round2};
use facile_core::Mode;
use facile_engine::AnnotationCache;
use facile_isa::AnnotatedBlock;
use facile_metrics::mape;
use facile_uarch::Uarch;
use std::sync::Arc;

/// The suite's measured blocks on `uarch` in `mode`: each block with a
/// positive measurement, paired with its annotation. Generating and
/// simulating the suite is the expensive part, so a comparison builds
/// these once and scores every predictor on them.
fn measured_suite(
    cache: &AnnotationCache,
    uarch: Uarch,
    mode: Mode,
    seed: u64,
) -> Vec<(f64, Arc<AnnotatedBlock>)> {
    let suite = generate_suite(100, seed);
    let mut measured = Vec::new();
    for b in &suite {
        let block = match mode {
            Mode::Unrolled => &b.unrolled,
            Mode::Loop => &b.looped,
        };
        let m = measure_block(block, uarch, mode == Mode::Loop);
        if m > 0.0 {
            measured.push((m, cache.annotate(block, uarch)));
        }
    }
    measured
}

fn score(measured: &[(f64, Arc<AnnotatedBlock>)], p: &dyn Predictor, mode: Mode) -> f64 {
    let pairs: Vec<(f64, f64)> = measured
        .iter()
        .map(|(m, ab)| (*m, round2(p.predict(ab, mode))))
        .collect();
    mape(&pairs)
}

fn suite_mape(
    cache: &AnnotationCache,
    p: &dyn Predictor,
    uarch: Uarch,
    mode: Mode,
    seed: u64,
) -> f64 {
    score(&measured_suite(cache, uarch, mode, seed), p, mode)
}

#[test]
fn facile_beats_every_baseline() {
    let uarch = Uarch::Skl;
    let seed = 4242;
    // Train the learned baselines on a *different* seed than the test set.
    let ithemal = IthemalLike::train(&[uarch], 150, 999);
    let difftune = DiffTuneLike::train(&[uarch], 150, 999);
    let learning_bl = LearningBl::train(&[uarch], 150, 999);
    let baselines: Vec<(&str, &dyn Predictor)> = vec![
        ("llvm-mca-like", &LlvmMcaLike),
        ("CQA-like", &CqaLike),
        ("OSACA-like", &OsacaLike),
        ("IACA-like", &IacaLike),
        ("Ithemal-like", &ithemal),
        ("DiffTune-like", &difftune),
        ("learning-bl", &learning_bl),
    ];
    // Each mode's suite is generated, measured and annotated once; every
    // predictor is scored on the same pairs, the way the engine's batch
    // path serves one annotation to all predictors.
    let cache = AnnotationCache::new();
    for mode in [Mode::Unrolled, Mode::Loop] {
        let measured = measured_suite(&cache, uarch, mode, seed);
        let facile = score(&measured, &FacilePredictor, mode);
        for (name, b) in &baselines {
            let e = score(&measured, *b, mode);
            assert!(
                facile < e,
                "{mode}: Facile ({facile:.4}) should beat {name} ({e:.4})"
            );
        }
    }
}

#[test]
fn simulation_predictor_is_exact_by_construction() {
    let e = suite_mape(
        &AnnotationCache::new(),
        &UicaLike,
        Uarch::Hsw,
        Mode::Unrolled,
        11,
    );
    assert!(
        e < 1e-9,
        "the simulator predicting its own measurements: {e}"
    );
}

#[test]
fn difftune_like_degrades_on_loops() {
    // The paper's DiffTune row: trained on TPU, far worse on TPL.
    let uarch = Uarch::Skl;
    let difftune = DiffTuneLike::train(&[uarch], 150, 999);
    let cache = AnnotationCache::new();
    let u = suite_mape(&cache, &difftune, uarch, Mode::Unrolled, 4242);
    let l = suite_mape(&cache, &difftune, uarch, Mode::Loop, 4242);
    assert!(
        l > 0.5 * u,
        "TPL should not be dramatically better: {l} vs {u}"
    );
}

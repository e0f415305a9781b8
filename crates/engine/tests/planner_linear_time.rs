//! The batch planner collapses duplicate items in time linear in the
//! batch, even when the items are chosen to collide: planning 32,768
//! distinct items takes at most 30× as long as 4,096 of them (linear
//! code gives 8×, plus cache misses as the dedup map outgrows the CPU
//! caches).
//!
//! The planner keys its dedup map by the request's own bytes, so the
//! map must not be one whose collisions a client can choose. Two shapes
//! of 16-byte items:
//!
//! - items that differ only in the top two bytes of their last 8-byte
//!   word, which an unseeded multiplicative hash whose low bits depend
//!   only on the key's low bits maps to few buckets;
//! - items whose last word is solved so that FxHash's state after it is
//!   the same for every item: FxHash mixes each word in with an
//!   invertible step, so a client can give any number of distinct keys
//!   one hash, and a map keyed with it degrades to a quadratic scan.
//!
//! Each item starts with an opcode byte that is invalid in 64-bit mode,
//! so the rest of the batch (a failed decode and an error row per item)
//! stays cheap and linear, and the planner's share of the time shows.

use facile_engine::{BatchItem, BlockInput, Engine, PredictorRegistry};
use facile_explain::Detail;
use facile_uarch::Uarch;
use facile_util::FxHasher;
use std::hash::Hasher;
use std::time::Instant;

/// First word of every item: `0x06` (undecodable), then the item's
/// index `i` in bytes 1..5.
fn first_word(i: usize) -> u64 {
    0x06 | (u64::try_from(i).expect("small index") << 8)
}

/// `i` in the top two bytes of the last word.
fn top_bytes(i: usize) -> [u64; 2] {
    [0x06, u64::try_from(i).expect("small index") << 48]
}

/// A last word that brings FxHash to one fixed state, whatever the
/// first word. The planner's key hashes the input's enum discriminant
/// and the slice length before the bytes (std's derived `Hash`).
fn same_fx_state(i: usize) -> [u64; 2] {
    let w0 = first_word(i);
    let mut h = FxHasher::default();
    h.write_usize(0);
    h.write_usize(16);
    h.write_u64(w0);
    // The next step is `(state.rotate_left(5) ^ w1) * K`: cancel the
    // state, so every item lands on the same value.
    [w0, h.finish().rotate_left(5) ^ 0x5eed]
}

fn items(n: usize, words: impl Fn(usize) -> [u64; 2]) -> Vec<BatchItem> {
    (0..n)
        .map(|i| BatchItem {
            input: BlockInput::Bytes(words(i).iter().flat_map(|w| w.to_le_bytes()).collect()),
            uarch: Uarch::Skl,
            mode: None,
            detail: Detail::Brief,
        })
        .collect()
}

/// Seconds for `reps` batches of `items` on a fresh engine each.
fn batch_secs(items: &[BatchItem], reps: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        let engine = Engine::new(PredictorRegistry::with_builtins()).with_threads(1);
        let rows = engine.predict_batch(items, "facile").expect("facile");
        assert!(rows.iter().all(|r| r.prediction.is_err()));
        let planner = engine.snapshot().planner;
        assert_eq!(planner.deduped, 0, "every item is distinct");
    }
    t.elapsed().as_secs_f64()
}

fn assert_linear(words: impl Fn(usize) -> [u64; 2] + Copy, shape: &str) {
    let (small, large) = (items(4096, words), items(32_768, words));
    // Minimum of five samples each. The small batch is timed eight times
    // over, so both samples last about as long, and the two sizes
    // alternate, so a stretch of host load is as likely to slow either.
    let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        t_small = t_small.min(batch_secs(&small, 8) / 8.0);
        t_large = t_large.min(batch_secs(&large, 1));
    }
    let ratio = t_large / t_small;
    assert!(
        ratio <= 30.0,
        "{shape}: 32768 items took {t_large:.6} s, 4096 took {t_small:.6} s: \
         ratio {ratio:.1} > 30"
    );
}

#[test]
fn items_differing_in_top_bytes_plan_in_linear_time() {
    assert_linear(top_bytes, "top bytes");
}

#[test]
fn items_with_one_fxhash_state_plan_in_linear_time() {
    assert_linear(same_fx_state, "one FxHash state");
}

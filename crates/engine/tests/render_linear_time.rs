//! Rendering a row takes time linear in its explanation: the
//! `Detail::Full` JSON and CSV rows of a block with 8× the instructions
//! take at most 16× as long to render (linear code gives 8×, and the
//! bound leaves 2× for noise where a writer that re-copies or re-scans
//! its output per element would take 64×). The explanation lists every
//! instruction's attribution, the critical chain and the port loads, so
//! each adversarial shape below is timed:
//!
//! * a distinct memory displacement per instruction;
//! * macro-fusible `cmp`/`jcc` pairs;
//! * length-changing prefixes (`66` + imm16).
//!
//! Each row is predicted once, outside the timed region; only the row
//! writers are timed.

use facile_engine::render::{write_row_csv, write_row_json};
use facile_engine::{BatchItem, BlockInput, Engine, ItemResult, PredictorRegistry};
use facile_explain::Detail;
use facile_uarch::Uarch;
use facile_util::timing::{assert_ratio, Clock};
use std::hint::black_box;

/// Instructions in the small block; the large one has eight times as
/// many.
const SMALL: u32 = 256;

/// The `Detail::Full` row of a block of `n` instructions, each encoded
/// by `inst(i)`.
fn full_row(n: u32, inst: impl Fn(u32) -> Vec<u8>) -> ItemResult {
    let item = BatchItem {
        input: BlockInput::Bytes((0..n).flat_map(inst).collect()),
        uarch: Uarch::Skl,
        mode: None,
        detail: Detail::Full,
    };
    let engine = Engine::new(PredictorRegistry::with_builtins())
        .without_cache()
        .with_threads(1);
    let mut rows = engine.predict_batch(&[item], "facile").expect("facile");
    let row = rows.pop().expect("one row");
    let explained = row.prediction.as_ref().map(|p| p.explanation.is_some());
    assert_eq!(explained, Ok(true), "{n} instructions");
    row
}

/// A row writer: appends one row to the buffer.
type Writer = fn(&mut String, &ItemResult);

/// Render `row` into `out` with `write`, reusing the buffer.
fn render(out: &mut String, row: &ItemResult, write: Writer) -> usize {
    out.clear();
    write(out, black_box(row));
    out.len()
}

fn assert_linear(shape: &str, inst: impl Fn(u32) -> Vec<u8> + Copy) {
    let (small, large) = (full_row(SMALL, inst), full_row(SMALL * 8, inst));
    let formats: [(&str, Writer); 2] = [
        ("json", write_row_json),
        ("csv", |out, r| write_row_csv(out, r, true)),
    ];
    for (format, write) in formats {
        let (mut a, mut b) = (String::new(), String::new());
        let (small_len, large_len) = (render(&mut a, &small, write), render(&mut b, &large, write));
        // The row must grow with the block, or the ratio shows nothing.
        assert!(
            large_len > 6 * small_len,
            "{shape} {format}: {large_len} B vs {small_len} B"
        );
        // The small row is rendered eight times over.
        assert_ratio(
            Clock::Thread,
            &format!("{shape} {format}: {large_len} B vs {small_len} B"),
            16.0,
            (8, |_| {
                render(&mut a, &small, write);
            }),
            (1, |_| {
                render(&mut b, &large, write);
            }),
        );
    }
}

#[test]
fn distinct_displacements_render_in_linear_time() {
    // mov rax, [rax + disp32], a new displacement each time.
    assert_linear("distinct disp32", |i| {
        let mut inst = vec![0x48, 0x8b, 0x80];
        inst.extend_from_slice(&i.to_le_bytes());
        inst
    });
}

#[test]
fn macro_fusible_pairs_render_in_linear_time() {
    // cmp rax, rcx; jne -5 (back to the cmp).
    assert_linear("cmp/jcc pairs", |_| vec![0x48, 0x39, 0xc8, 0x75, 0xfb]);
}

#[test]
fn length_changing_prefixes_render_in_linear_time() {
    // add cx, imm16: an operand-size prefix on a 16-bit immediate.
    assert_linear("66 + imm16", |i| {
        let [lo, hi, ..] = i.to_le_bytes();
        vec![0x66, 0x81, 0xc1, lo, hi]
    });
}

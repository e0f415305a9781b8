//! Seeded workload inputs, the reference rows they must produce, and the
//! check that counts output rows differing from the reference.

use facile_bhive::BlockStream;
use facile_core::{Facile, Mode};
use facile_engine::render::{row_csv, row_json};
use facile_engine::{parallel_map_indexed, Detail, ItemResult, Prediction};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::collections::HashSet;
use std::sync::Arc;

/// How a workload asks for its rows: which uarchs per block, which
/// explanation detail, and which row spelling.
#[derive(Debug, Clone)]
pub struct RowSpec {
    pub uarchs: Vec<Uarch>,
    pub detail: Detail,
    pub csv: bool,
}

impl RowSpec {
    /// Whether rows carry an explanation (the CLI's `--explain`).
    pub fn explain(&self) -> bool {
        self.detail != Detail::Brief
    }
}

/// The throughput notion `facile` picks in auto mode.
pub fn auto_mode(block: &Block) -> Mode {
    if block.ends_in_branch() {
        Mode::Loop
    } else {
        Mode::Unrolled
    }
}

/// One `facile` row for a finished analysis, as the engine builds it.
pub fn item_row(
    block_hex: &Arc<str>,
    uarch: Uarch,
    mode: Mode,
    prediction: Prediction,
) -> ItemResult {
    ItemResult {
        item: 0,
        block_hex: Arc::clone(block_hex),
        uarch,
        mode: Some(mode),
        predictor: Arc::from("facile"),
        prediction: Ok(prediction),
    }
}

/// Render a row in the spec's spelling.
pub fn render(row: &ItemResult, spec: &RowSpec) -> String {
    if spec.csv {
        row_csv(row, spec.explain())
    } else {
        row_json(row)
    }
}

/// The reference rows of one block: the naive path (annotation without
/// the intern table, then `Facile::analyze`), rendered through
/// `facile_engine::render`. `None` when the model yields no valid
/// throughput on some uarch, so the block would produce an error row.
pub fn reference_rows(block: &Block, spec: &RowSpec) -> Option<Vec<String>> {
    let facile = Facile::new();
    let hex: Arc<str> = Arc::from(block.to_hex());
    let mode = auto_mode(block);
    spec.uarchs
        .iter()
        .map(|&u| {
            let ab = AnnotatedBlock::new_uninterned(block.clone(), u);
            let e = facile.analyze(&ab, mode, spec.detail);
            if !(e.throughput.is_finite() && e.throughput >= 0.0) {
                return None;
            }
            let prediction = Prediction {
                throughput: e.throughput,
                bottleneck: e.primary_bottleneck(),
                explanation: (spec.detail != Detail::Brief).then(|| Box::new(e)),
            };
            Some(render(&item_row(&hex, u, mode, prediction), spec))
        })
        .collect()
}

/// A workload's input: distinct blocks drawn from `BlockStream(seed)`,
/// as the hex lines `facile` reads, with their reference rows
/// (`rows_per_block` consecutive rows per block, in input order).
pub struct Inputs {
    pub hex: Vec<String>,
    pub rows: Vec<String>,
    pub rows_per_block: usize,
}

impl Inputs {
    /// The first `n` distinct, non-empty blocks of the seeded stream whose
    /// reference rows are all valid. Reference rows are computed on
    /// `threads` threads; the result does not depend on the count.
    pub fn generate(seed: u64, n: usize, spec: &RowSpec, threads: usize) -> Inputs {
        let mut seen = HashSet::new();
        let mut stream = BlockStream::new(seed)
            .map(|g| g.block)
            .filter(|b| !b.is_empty() && seen.insert(b.bytes().to_vec()));
        let mut inputs = Inputs {
            hex: Vec::with_capacity(n),
            rows: Vec::with_capacity(n * spec.uarchs.len()),
            rows_per_block: spec.uarchs.len(),
        };
        while inputs.hex.len() < n {
            let want = n - inputs.hex.len();
            let batch: Vec<Block> = stream.by_ref().take(want).collect();
            assert!(!batch.is_empty(), "the block stream is unbounded");
            let refs =
                parallel_map_indexed(batch.len(), threads, |i| reference_rows(&batch[i], spec));
            for (block, rows) in batch.iter().zip(refs) {
                if let Some(rows) = rows {
                    inputs.hex.push(block.to_hex());
                    inputs.rows.extend(rows);
                }
            }
        }
        inputs
    }

    /// The reference rows of block `i`.
    pub fn block_rows(&self, i: usize) -> &[String] {
        &self.rows[i * self.rows_per_block..(i + 1) * self.rows_per_block]
    }

    /// The input file `facile --batch` and `facile client --batch` read.
    pub fn to_lines(&self) -> String {
        let mut s = String::with_capacity(self.hex.iter().map(|h| h.len() + 1).sum());
        for h in &self.hex {
            s.push_str(h);
            s.push('\n');
        }
        s
    }
}

/// Compare output lines with the expected rows, in order. Returns one
/// flag per expected row (`true` = changed or missing) and the number of
/// surplus output lines.
pub fn row_mismatches(expected: &[String], output: &str) -> (Vec<bool>, usize) {
    let mut lines = output.lines();
    let bad = expected
        .iter()
        .map(|e| lines.next() != Some(e.as_str()))
        .collect();
    (bad, lines.count())
}

/// Failed rows: every changed or missing row, plus every surplus line,
/// capped at the number of expected rows.
pub fn failed_rows(expected: &[String], output: &str) -> usize {
    let (bad, extra) = row_mismatches(expected, output);
    (bad.iter().filter(|b| **b).count() + extra).min(expected.len())
}

/// Failed requests when rows arrive `rows_per_request` at a time: a
/// request fails if any of its rows changed or is missing. Surplus lines
/// fail the last request.
pub fn failed_requests(expected: &[String], output: &str, rows_per_request: usize) -> usize {
    let (bad, extra) = row_mismatches(expected, output);
    let mut failed: Vec<bool> = bad
        .chunks(rows_per_request)
        .map(|c| c.iter().any(|b| *b))
        .collect();
    if extra > 0 {
        if let Some(last) = failed.last_mut() {
            *last = true;
        }
    }
    failed.iter().filter(|f| **f).count()
}

/// The reply line the server sends for a request whose rows are `rows`.
pub fn rows_reply(rows: &[String], csv: bool) -> String {
    let mut s = String::from("{\"ok\":true,\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        if csv {
            s.push('"');
            s.push_str(&facile_explain::json_escape(r));
            s.push('"');
        } else {
            s.push_str(r);
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(csv: bool, detail: Detail) -> RowSpec {
        RowSpec {
            uarchs: vec![Uarch::Skl, Uarch::Hsw],
            detail,
            csv,
        }
    }

    #[test]
    fn inputs_are_seeded_distinct_and_complete() {
        let s = spec(true, Detail::Brief);
        let a = Inputs::generate(7, 40, &s, 2);
        let b = Inputs::generate(7, 40, &s, 1);
        assert_eq!(a.hex, b.hex);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows.len(), 80);
        let distinct: HashSet<&String> = a.hex.iter().collect();
        assert_eq!(distinct.len(), 40);
        assert_ne!(Inputs::generate(8, 40, &s, 2).hex, a.hex);
    }

    #[test]
    fn reference_matches_the_engine() {
        for s in [spec(true, Detail::Brief), spec(false, Detail::Full)] {
            let inputs = Inputs::generate(3, 25, &s, 2);
            let engine = facile_engine::Engine::with_builtins();
            let items: Vec<_> = inputs
                .hex
                .iter()
                .flat_map(|h| {
                    s.uarchs
                        .iter()
                        .map(|&u| facile_engine::BatchItem::hex(h.clone(), u).with_detail(s.detail))
                })
                .collect();
            let rows = engine.predict_batch(&items, "facile").expect("resolves");
            let out: Vec<String> = rows.iter().map(|r| render(r, &s)).collect();
            assert_eq!(out, inputs.rows);
        }
    }

    #[test]
    fn a_perturbed_row_counts_as_failed() {
        let inputs = Inputs::generate(11, 30, &spec(false, Detail::Brief), 2);
        let good = inputs.rows.join("\n") + "\n";
        assert_eq!(failed_rows(&inputs.rows, &good), 0);
        assert_eq!(failed_requests(&inputs.rows, &good, 8), 0);

        // One changed digit in one row.
        let mut rows = inputs.rows.clone();
        rows[17] = rows[17].replacen("\"throughput\":", "\"throughput\":9", 1);
        let perturbed = rows.join("\n");
        assert_eq!(failed_rows(&inputs.rows, &perturbed), 1);
        assert_eq!(failed_requests(&inputs.rows, &perturbed, 8), 1);

        // A missing row shifts every later row: all of them fail.
        let mut rows = inputs.rows.clone();
        rows.remove(57);
        assert_eq!(failed_rows(&inputs.rows, &rows.join("\n")), 3);
        assert_eq!(failed_requests(&inputs.rows, &rows.join("\n"), 8), 1);

        // A surplus row fails too.
        assert_eq!(failed_rows(&inputs.rows, &(good.clone() + "extra\n")), 1);
        assert_eq!(failed_requests(&inputs.rows, &(good + "extra\n"), 8), 1);
    }

    #[test]
    fn csv_reply_rows_are_json_strings() {
        let rows = vec!["a,\"b\"".to_string(), "c".to_string()];
        assert_eq!(
            rows_reply(&rows, true),
            r#"{"ok":true,"rows":["a,\"b\"","c"]}"#
        );
        assert_eq!(rows_reply(&rows[1..], false), r#"{"ok":true,"rows":[c]}"#);
    }
}

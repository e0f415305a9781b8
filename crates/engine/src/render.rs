//! Machine-readable renderings of batch rows.
//!
//! One [`ItemResult`] row has exactly one JSON and one CSV spelling,
//! produced here and nowhere else. The `facile` CLI's batch output and
//! the `facile-server` daemon's protocol replies both call these
//! functions, which is what makes the "server rows are byte-identical
//! to CLI rows" guarantee a property of the code rather than of two
//! renderers kept in sync by hand.

use crate::engine::ItemResult;
use facile_core::Mode;
use facile_explain::{fixed4, json_escape_into};

/// Append `s` as one CSV field: as is, or quoted per RFC 4180 (inner
/// quotes doubled) when it holds a comma, quote or line break.
fn csv_field(out: &mut String, s: &str) {
    if !s.contains([',', '"', '\n', '\r']) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// The wire spelling of a throughput notion (`tpu`, `tpl`, or empty when
/// decoding failed before the notion could be resolved).
#[must_use]
pub fn mode_str(mode: Option<Mode>) -> &'static str {
    match mode {
        Some(Mode::Unrolled) => "tpu",
        Some(Mode::Loop) => "tpl",
        None => "",
    }
}

/// The CSV column header for batch rows (without the optional
/// `explanation` column).
pub const CSV_HEADER: &str = "block,uarch,mode,predictor,status,throughput,bottleneck,error";

/// The CSV header row, with the `explanation` column iff rows will carry
/// explanations.
#[must_use]
pub fn csv_header(explain: bool) -> String {
    if explain {
        format!("{CSV_HEADER},explanation")
    } else {
        CSV_HEADER.to_string()
    }
}

/// One row as a single-line JSON object (no trailing newline). A wrapper
/// over [`write_row_json`].
#[must_use]
pub fn row_json(r: &ItemResult) -> String {
    let mut s = String::with_capacity(160);
    write_row_json(&mut s, r);
    s
}

/// Append one row as a single-line JSON object (no trailing newline) to
/// `out`, which the caller owns and may reuse across rows.
pub fn write_row_json(out: &mut String, r: &ItemResult) {
    out.push_str("{\"block\":\"");
    json_escape_into(out, &r.block_hex);
    out.push_str("\",\"uarch\":\"");
    out.push_str(r.uarch.abbrev());
    out.push_str("\",\"mode\":\"");
    out.push_str(mode_str(r.mode));
    out.push_str("\",\"predictor\":\"");
    json_escape_into(out, &r.predictor);
    match &r.prediction {
        Ok(p) => {
            out.push_str("\",\"status\":\"ok\",\"throughput\":");
            fixed4(out, p.throughput);
            out.push_str(",\"bottleneck\":");
            match p.bottleneck {
                Some(b) => {
                    out.push('"');
                    out.push_str(b.name());
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            if let Some(e) = &p.explanation {
                out.push_str(",\"explanation\":");
                e.write_json(out);
            }
        }
        Err(e) => {
            out.push_str("\",\"status\":\"error\",\"code\":\"");
            out.push_str(e.code());
            out.push_str("\",\"error\":\"");
            json_escape_into(out, &e.to_string());
            out.push('"');
        }
    }
    out.push('}');
}

/// One row as a CSV line (no trailing newline). A wrapper over
/// [`write_row_csv`].
#[must_use]
pub fn row_csv(r: &ItemResult, explain: bool) -> String {
    let mut s = String::with_capacity(96);
    write_row_csv(&mut s, r, explain);
    s
}

/// Append one row as a CSV line (no trailing newline) to `out`, which
/// the caller owns and may reuse across rows. `explain` appends the
/// `explanation` column (empty for error rows), matching
/// [`csv_header`]`(true)`.
pub fn write_row_csv(out: &mut String, r: &ItemResult, explain: bool) {
    csv_field(out, &r.block_hex);
    out.push(',');
    out.push_str(r.uarch.abbrev());
    out.push(',');
    out.push_str(mode_str(r.mode));
    out.push(',');
    csv_field(out, &r.predictor);
    match &r.prediction {
        Ok(p) => {
            out.push_str(",ok,");
            fixed4(out, p.throughput);
            out.push(',');
            out.push_str(p.bottleneck.map_or("", |b| b.name()));
            out.push(',');
            if explain {
                out.push(',');
                if let Some(e) = &p.explanation {
                    // The JSON always holds quotes, so the field is always
                    // quoted: render it once, then quote it in.
                    let json = e.to_json();
                    csv_field(out, &json);
                }
            }
        }
        Err(e) => {
            out.push(',');
            out.push_str(e.code());
            out.push_str(",,,");
            csv_field(out, &e.to_string());
            if explain {
                out.push(',');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchItem, Engine};
    use facile_uarch::Uarch;

    #[test]
    fn json_and_csv_rows_render() {
        let engine = Engine::with_builtins().with_threads(1);
        let items = [
            BatchItem::hex("4801c8", Uarch::Skl),
            BatchItem::hex("zz", Uarch::Skl),
        ];
        let rows = engine.predict_batch(&items, "facile").expect("resolves");
        assert_eq!(
            row_json(&rows[0]),
            "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\
             \"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":\"Precedence\"}"
        );
        assert_eq!(
            row_csv(&rows[0], false),
            "4801c8,SKL,tpu,facile,ok,1.0000,Precedence,"
        );
        let err_json = row_json(&rows[1]);
        assert!(err_json.contains("\"status\":\"error\""), "{err_json}");
        assert!(err_json.contains("\"code\":\"bad-hex\""), "{err_json}");
        // The explain column is appended exactly when requested.
        assert!(row_csv(&rows[1], true).ends_with(','));
    }

    #[test]
    fn csv_escaping() {
        let field = |s: &str| {
            let mut out = String::new();
            csv_field(&mut out, s);
            out
        };
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("a\"b"), "\"a\"\"b\"");
        assert_eq!(field("\"\"\n"), "\"\"\"\"\"\n\"");
    }
}

//! The NDJSON request/reply protocol.
//!
//! One request per line, one reply line per request, always in request
//! order. Requests are JSON objects with an `"op"` discriminator:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"health"}
//! {"op":"predict","block":"4801c8","uarch":"SKL"}
//! {"op":"batch","blocks":["4801c8","90"],"uarch":"all","predictors":"facile,sim"}
//! ```
//!
//! Optional fields on `predict`/`batch` mirror the CLI's batch flags:
//! `"uarch"` (an abbreviation or `"all"`, default `"SKL"`), `"mode"`
//! (`"auto"`/`"tpu"`/`"tpl"`, default auto), `"detail"` (`"brief"`/
//! `"bounds"`/`"full"`), `"predictors"` (a selector string; the server's
//! default when absent), `"format"` (`"json"`/`"csv"` row rendering),
//! and `"deadline_ms"` (drop the request, with a `deadline-exceeded`
//! error, if it still sits in the queue this many milliseconds after
//! admission). Any request may carry an `"id"`, which is echoed
//! *verbatim* (raw bytes, any JSON value) in the reply.
//!
//! Replies are `{"ok":true,...}` or
//! `{"ok":false,"code":"...","error":"..."}` (with the echoed `"id"`
//! first when present). Prediction replies carry `"rows"`: each row is
//! rendered by `facile_engine::render` — the same functions the CLI's
//! `--format json`/`csv` output goes through — so a served row is
//! byte-identical to the CLI row for the same input, by construction.
//!
//! Unknown top-level request fields are rejected (`bad-request`) rather
//! than ignored: a typoed `"modes"` silently falling back to defaults
//! would be a debugging trap.

use facile_engine::render;
use facile_engine::{BatchItem, BlockInput, Detail, ItemResult};
use facile_explain::Mode;
use facile_explain::{json_escape, json_escape_into};
use facile_uarch::Uarch;
use facile_util::json::{self, Kind, Value};

/// How prediction rows are rendered in the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// Rows are embedded as raw JSON objects ([`render::write_row_json`]).
    Json,
    /// Rows are CSV lines carried as JSON strings ([`render::write_row_csv`]).
    Csv,
}

/// A parsed `predict`/`batch` request: the engine items plus everything
/// the reply needs.
#[derive(Debug, Clone)]
pub struct Work {
    /// Batch items, expanded `blocks × uarchs` in CLI order.
    pub items: Vec<BatchItem>,
    /// Predictor selector (`None` = the server's default).
    pub predictors: Option<String>,
    /// Row rendering for the reply.
    pub render: Render,
    /// Whether CSV rows carry the `explanation` column (requests with
    /// `detail` above `brief`, mirroring the CLI's `--explain`).
    pub explain: bool,
    /// Queue-residency budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether the request used the `batch` op (shed before `predict`
    /// under load; `predict` is the lower-volume interactive path).
    pub batch: bool,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server + engine counters.
    Stats,
    /// Degradation-tier probe (`ok`/`degraded`/`shedding`). Like `ping`
    /// and `stats`, always answered — never shed or rate-limited.
    Health,
    /// A prediction batch.
    Predict(Work),
}

/// A request line with its echoed `id` (raw JSON bytes, if present).
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The `"id"` field, verbatim.
    pub id: Option<String>,
    /// The request.
    pub request: Request,
}

/// A request-level rejection, rendered by [`error_reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The echoed `id`, when the line parsed far enough to have one.
    pub id: Option<String>,
    /// Stable machine-readable code (`bad-json`, `bad-request`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<String>, code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            code,
            message: message.into(),
        }
    }
}

const KNOWN_KEYS: [&str; 10] = [
    "op",
    "id",
    "block",
    "blocks",
    "uarch",
    "mode",
    "detail",
    "predictors",
    "format",
    "deadline_ms",
];

/// Parse one request line.
///
/// # Errors
/// A [`ProtoError`] with code `bad-json` (malformed JSON) or
/// `bad-request` (well-formed JSON that is not a valid request).
pub fn parse_request(line: &str) -> Result<Parsed, ProtoError> {
    let v = json::parse(line)
        .map_err(|e| ProtoError::new(None, "bad-json", format!("malformed JSON: {e}")))?;
    let members = match &v.kind {
        Kind::Obj(members) => members,
        _ => {
            return Err(ProtoError::new(
                None,
                "bad-request",
                "request must be a JSON object",
            ))
        }
    };
    let id = v.get("id").map(|x| x.raw(line).to_string());
    let bad = |msg: String| ProtoError::new(id.clone(), "bad-request", msg);
    if let Some((k, _)) = members
        .iter()
        .find(|(k, _)| !KNOWN_KEYS.contains(&k.as_str()))
    {
        return Err(bad(format!("unknown field: {k:?}")));
    }
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing or non-string \"op\"".to_string()))?;
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "health" => Request::Health,
        "predict" | "batch" => Request::Predict(parse_work(line, &v, op, &bad)?),
        other => return Err(bad(format!("unknown op: {other:?}"))),
    };
    Ok(Parsed { id, request })
}

fn parse_work(
    line: &str,
    v: &Value,
    op: &str,
    bad: &dyn Fn(String) -> ProtoError,
) -> Result<Work, ProtoError> {
    let blocks: Vec<String> = match op {
        "predict" => {
            let b = v
                .get("block")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("\"predict\" requires a string \"block\"".to_string()))?;
            vec![b.to_string()]
        }
        _ => {
            let arr = v
                .get("blocks")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("\"batch\" requires an array \"blocks\"".to_string()))?;
            arr.iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("\"blocks\" entries must be strings".to_string()))
                })
                .collect::<Result<_, _>>()?
        }
    };
    let uarchs: Vec<Uarch> = match v.get("uarch") {
        None => vec![Uarch::Skl],
        Some(u) => {
            let s = u
                .as_str()
                .ok_or_else(|| bad("\"uarch\" must be a string".to_string()))?;
            if s == "all" {
                Uarch::ALL.to_vec()
            } else {
                vec![s.parse().map_err(|e| bad(format!("{e}")))?]
            }
        }
    };
    let mode = match v.get("mode").map(|m| m.as_str()) {
        None => None,
        Some(Some("auto")) => None,
        Some(Some("loop" | "tpl")) => Some(Mode::Loop),
        Some(Some("unroll" | "tpu")) => Some(Mode::Unrolled),
        Some(other) => {
            return Err(bad(format!(
                "unknown mode: {} (auto|tpu|tpl)",
                other.map_or_else(|| "non-string".to_string(), |s| format!("{s:?}"))
            )))
        }
    };
    let detail = match v.get("detail").map(|d| d.as_str()) {
        None | Some(Some("brief")) => Detail::Brief,
        Some(Some("bounds")) => Detail::Bounds,
        Some(Some("full")) => Detail::Full,
        Some(other) => {
            return Err(bad(format!(
                "unknown detail: {} (brief|bounds|full)",
                other.map_or_else(|| "non-string".to_string(), |s| format!("{s:?}"))
            )))
        }
    };
    let predictors = match v.get("predictors") {
        None => None,
        Some(p) => Some(
            p.as_str()
                .ok_or_else(|| bad("\"predictors\" must be a string".to_string()))?
                .to_string(),
        ),
    };
    let render = match v.get("format").map(|f| f.as_str()) {
        None | Some(Some("json")) => Render::Json,
        Some(Some("csv")) => Render::Csv,
        Some(other) => {
            return Err(bad(format!(
                "unknown format: {} (json|csv)",
                other.map_or_else(|| "non-string".to_string(), |s| format!("{s:?}"))
            )))
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => {
            let n = d
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64)
                .ok_or_else(|| bad("\"deadline_ms\" must be a non-negative integer".to_string()))?;
            Some(n as u64)
        }
    };
    // Expansion mirrors the CLI's batch loop: per block, per uarch.
    let mut items = Vec::with_capacity(blocks.len() * uarchs.len());
    for hex in &blocks {
        for &u in &uarchs {
            items.push(BatchItem {
                input: BlockInput::Hex(hex.clone()),
                uarch: u,
                mode,
                detail,
            });
        }
    }
    let _ = line;
    Ok(Work {
        items,
        predictors,
        render,
        explain: detail != Detail::Brief,
        deadline_ms,
        batch: op == "batch",
    })
}

fn id_field(id: Option<&str>) -> String {
    id.map_or_else(String::new, |raw| format!("\"id\":{raw},"))
}

/// Render an error reply line (no trailing newline).
#[must_use]
pub fn error_reply(id: Option<&str>, code: &str, message: &str) -> String {
    format!(
        "{{{}\"ok\":false,\"code\":\"{code}\",\"error\":\"{}\"}}",
        id_field(id),
        json_escape(message)
    )
}

/// Render a `ping` reply line.
#[must_use]
pub fn pong_reply(id: Option<&str>) -> String {
    format!("{{{}\"ok\":true,\"pong\":true}}", id_field(id))
}

/// Render a `health` reply line: the degradation tier
/// (`ok`/`degraded`/`shedding`) and the load pressure that produced it
/// (queue occupancy: pending items over the admission cap).
#[must_use]
pub fn health_reply(id: Option<&str>, tier: &str, pressure: f64) -> String {
    format!(
        "{{{}\"ok\":true,\"health\":\"{tier}\",\"pressure\":{pressure:.2}}}",
        id_field(id)
    )
}

/// Render a `stats` reply line from pre-rendered JSON objects.
#[must_use]
pub fn stats_reply(id: Option<&str>, server_json: &str, engine_json: &str) -> String {
    format!(
        "{{{}\"ok\":true,\"stats\":{{\"server\":{server_json},\"engine\":{engine_json}}}}}",
        id_field(id)
    )
}

/// Render a prediction reply line: the engine rows in request order,
/// each spelled exactly as the CLI would spell it.
#[must_use]
pub fn rows_reply(
    id: Option<&str>,
    rows: &[ItemResult],
    render_as: Render,
    explain: bool,
) -> String {
    let mut s = String::with_capacity(64 + rows.len() * 96);
    s.push('{');
    s.push_str(&id_field(id));
    s.push_str("\"ok\":true,\"rows\":[");
    // CSV rows are rendered into one reused buffer, then escaped in.
    let mut csv = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match render_as {
            Render::Json => render::write_row_json(&mut s, r),
            Render::Csv => {
                csv.clear();
                render::write_row_csv(&mut csv, r, explain);
                s.push('"');
                json_escape_into(&mut s, &csv);
                s.push('"');
            }
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_parses() {
        let p = parse_request(r#"{"op":"predict","block":"4801c8","uarch":"HSW","id":7}"#).unwrap();
        assert_eq!(p.id.as_deref(), Some("7"));
        let Request::Predict(w) = p.request else {
            panic!("not predict")
        };
        assert_eq!(w.items.len(), 1);
        assert_eq!(w.items[0].uarch, Uarch::Hsw);
        assert!(w.items[0].mode.is_none());
        assert_eq!(w.render, Render::Json);
        assert!(!w.explain);
        assert!(!w.batch, "predict is not the batch op");
        let p = parse_request(r#"{"op":"health","id":3}"#).unwrap();
        assert!(matches!(p.request, Request::Health));
        assert_eq!(p.id.as_deref(), Some("3"));
    }

    #[test]
    fn batch_expands_blocks_times_uarchs_in_cli_order() {
        let p = parse_request(r#"{"op":"batch","blocks":["90","4801c8"],"uarch":"all"}"#).unwrap();
        let Request::Predict(w) = p.request else {
            panic!("not predict")
        };
        assert_eq!(w.items.len(), 2 * Uarch::ALL.len());
        assert!(w.batch, "batch op is flagged for shed ordering");
        // Per block, per uarch — exactly how the CLI's batch loop expands.
        assert_eq!(w.items[0].uarch, Uarch::Snb);
        assert_eq!(w.items[8].uarch, Uarch::Rkl);
        assert!(matches!(&w.items[9].input, BlockInput::Hex(h) if h == "4801c8"));
    }

    #[test]
    fn optional_fields_parse() {
        let p = parse_request(
            r#"{"op":"batch","blocks":["90"],"mode":"tpl","detail":"full","predictors":"facile,sim","format":"csv","deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Predict(w) = p.request else {
            panic!("not predict")
        };
        assert_eq!(w.items[0].mode, Some(Mode::Loop));
        assert_eq!(w.items[0].detail, Detail::Full);
        assert_eq!(w.predictors.as_deref(), Some("facile,sim"));
        assert_eq!(w.render, Render::Csv);
        assert!(w.explain);
        assert_eq!(w.deadline_ms, Some(250));
    }

    #[test]
    fn rejections_carry_codes_and_echo_ids() {
        let e = parse_request("{not json").unwrap_err();
        assert_eq!(e.code, "bad-json");
        let e = parse_request(r#"{"op":"fly","id":"x"}"#).unwrap_err();
        assert_eq!(e.code, "bad-request");
        assert_eq!(e.id.as_deref(), Some("\"x\""));
        let e = parse_request(r#"{"op":"predict","block":"90","modes":"tpl"}"#).unwrap_err();
        assert!(e.message.contains("unknown field"), "{}", e.message);
        let e = parse_request(r#"{"op":"predict","block":"90","uarch":"XXX"}"#).unwrap_err();
        assert_eq!(e.code, "bad-request");
        let e = parse_request(r#"{"op":"predict","block":"90","deadline_ms":-1}"#).unwrap_err();
        assert_eq!(e.code, "bad-request");
        assert_eq!(parse_request(r#"[1,2]"#).unwrap_err().code, "bad-request");
    }

    #[test]
    fn reply_shapes() {
        assert_eq!(pong_reply(None), r#"{"ok":true,"pong":true}"#);
        assert_eq!(pong_reply(Some("42")), r#"{"id":42,"ok":true,"pong":true}"#);
        assert_eq!(
            error_reply(Some(r#""a""#), "overloaded", "queue full"),
            r#"{"id":"a","ok":false,"code":"overloaded","error":"queue full"}"#
        );
        assert_eq!(
            stats_reply(None, r#"{"connections":1}"#, r#"{"planner":{}}"#),
            r#"{"ok":true,"stats":{"server":{"connections":1},"engine":{"planner":{}}}}"#
        );
        assert_eq!(
            rows_reply(None, &[], Render::Json, false),
            r#"{"ok":true,"rows":[]}"#
        );
        assert_eq!(
            health_reply(None, "ok", 0.0),
            r#"{"ok":true,"health":"ok","pressure":0.00}"#
        );
        assert_eq!(
            health_reply(Some("9"), "shedding", 0.987),
            r#"{"id":9,"ok":true,"health":"shedding","pressure":0.99}"#
        );
    }
}

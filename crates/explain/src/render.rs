//! Renderers over the explanation data model: structured JSON (no
//! external dependencies) and a compact human-readable text form.
//!
//! The legacy full report — which disassembles the instructions on the
//! critical chain — lives in `facile-core::report`, since it needs the
//! annotated block; these renderers work from the [`Explanation`] alone
//! and are what the CLI uses for `--explain` in batch mode.

use crate::explanation::{ChainStep, Evidence, Explanation, PortLoad};
use std::fmt::{self, Write};

/// Escape a string for inclusion in a JSON string literal. Exported so
/// every JSON emitter in the workspace (this crate's renderer, the CLI's
/// row writer) shares one escaping implementation.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped for a JSON string literal (the quotes are
/// the caller's). Runs of bytes that need no escape are copied whole.
pub fn json_escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
        }
    }
    out.push_str(&s[run..]);
}

const HEX: [char; 16] = [
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f',
];

/// Write `n` in decimal to any text sink.
pub(crate) fn write_uint<W: Write>(w: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        #[allow(clippy::cast_possible_truncation)] // a digit
        let d = (n % 10) as u8;
        buf[at] = b'0' + d;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[at..] {
        w.write_char(char::from(b))?;
    }
    Ok(())
}

/// Append `n` in decimal (what `{n}` prints).
fn push_uint(out: &mut String, n: u64) {
    let _ = write_uint(out, n);
}

/// `v` as a count of sixteenths, when that count is exact: `v` finite,
/// `|v| < 1e12` and `16 v` integral. Such a value's exact decimal
/// expansion has at most four fractional digits, and it is also its
/// shortest round-trip spelling: below 1e12 (< 2^40) half an ulp is at
/// most 2^-14, while any decimal with fewer fractional digits is at
/// least 5e-4 away.
fn sixteenths(v: f64) -> Option<i64> {
    let s = v * 16.0;
    #[allow(clippy::cast_possible_truncation)] // |s| < 1.6e13, integral
    (v.abs() < 1e12 && s == s.trunc()).then_some(s as i64)
}

/// The four decimal digits of `frac` sixteenths (`frac < 16`): 1 → 0625.
fn frac_digits(frac: u64) -> [u8; 4] {
    let d = frac * 625;
    #[allow(clippy::cast_possible_truncation)] // digits
    [
        b'0' + (d / 1000) as u8,
        b'0' + (d / 100 % 10) as u8,
        b'0' + (d / 10 % 10) as u8,
        b'0' + (d % 10) as u8,
    ]
}

/// Append `v` as a JSON number: exactly what `{v}` prints for finite
/// values, `null` for non-finite ones (which cannot occur for well-formed
/// explanations but must not produce invalid JSON if they ever do).
/// Whole and sixteenth values below 1e12 are printed from integer digits,
/// keeping the sign of `-0.0`; everything else goes through `{v}`.
pub fn json_num(out: &mut String, v: f64) {
    if let Some(k) = sixteenths(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        let a = k.unsigned_abs();
        push_uint(out, a >> 4);
        if a & 15 != 0 {
            let d = frac_digits(a & 15);
            let len = 4 - d.iter().rev().take_while(|&&c| c == b'0').count();
            out.push('.');
            d[..len].iter().for_each(|&c| out.push(char::from(c)));
        }
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `v` exactly as `{v:.4}` prints it. Sixteenth values below 1e12
/// are printed from integer digits (they need no rounding); everything
/// else goes through `{v:.4}`.
pub fn fixed4(out: &mut String, v: f64) {
    if let Some(k) = sixteenths(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        let a = k.unsigned_abs();
        push_uint(out, a >> 4);
        out.push('.');
        frac_digits(a & 15)
            .iter()
            .for_each(|&c| out.push(char::from(c)));
    } else {
        let _ = write!(out, "{v:.4}");
    }
}

fn json_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

fn json_chain(out: &mut String, chain: &[ChainStep]) {
    out.push('[');
    for (i, s) in chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"inst\":");
        push_uint(out, u64::from(s.inst));
        // Value spellings are registers, flags and address expressions:
        // nothing in them needs a JSON escape.
        out.push_str(",\"value\":\"");
        let _ = s.value.write_to(out);
        out.push_str("\",\"latency\":");
        json_num(out, s.latency);
        out.push_str(",\"loop_carried\":");
        json_bool(out, s.loop_carried);
        out.push('}');
    }
    out.push(']');
}

fn json_port_loads(out: &mut String, loads: &[PortLoad]) {
    out.push('[');
    for (i, l) in loads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ports\":\"");
        let _ = l.ports.write_to(out);
        out.push_str("\",\"uops\":");
        json_num(out, l.uops);
        out.push('}');
    }
    out.push(']');
}

/// Append `,"key":n` (`key` written with its leading separator and
/// quotes, as `",\"chunks\":"`).
fn field_uint(out: &mut String, key: &str, n: impl Into<u64>) {
    out.push_str(key);
    push_uint(out, n.into());
}

fn json_evidence(out: &mut String, e: &Evidence) {
    match e {
        Evidence::None => out.push_str("null"),
        Evidence::Predec(p) => {
            field_uint(
                out,
                "{\"kind\":\"predec\",\"unroll_copies\":",
                p.unroll_copies,
            );
            field_uint(out, ",\"chunks\":", p.chunks);
            field_uint(out, ",\"lcp_insts\":", p.lcp_insts);
            field_uint(out, ",\"boundary_crossings\":", p.boundary_crossings);
            out.push_str(",\"base_cycles\":");
            json_num(out, p.base_cycles);
            out.push_str(",\"lcp_penalty_cycles\":");
            json_num(out, p.lcp_penalty_cycles);
            out.push('}');
        }
        Evidence::Dec(d) => {
            field_uint(out, "{\"kind\":\"dec\",\"decoders\":", d.decoders);
            field_uint(out, ",\"steady_cycles\":", d.steady_cycles);
            field_uint(out, ",\"steady_iterations\":", d.steady_iterations);
            field_uint(out, ",\"complex_insts\":", d.complex_insts);
            out.push('}');
        }
        Evidence::Dsb(d) => {
            field_uint(out, "{\"kind\":\"dsb\",\"fused_uops\":", d.fused_uops);
            field_uint(out, ",\"dsb_width\":", d.dsb_width);
            out.push_str(",\"rounded_up\":");
            json_bool(out, d.rounded_up);
            out.push('}');
        }
        Evidence::Lsd(l) => {
            field_uint(out, "{\"kind\":\"lsd\",\"fused_uops\":", l.fused_uops);
            field_uint(out, ",\"unroll\":", l.unroll);
            field_uint(out, ",\"issue_width\":", l.issue_width);
            out.push('}');
        }
        Evidence::Issue(i) => {
            field_uint(out, "{\"kind\":\"issue\",\"issue_uops\":", i.issue_uops);
            field_uint(out, ",\"issue_width\":", i.issue_width);
            out.push('}');
        }
        Evidence::Ports(p) => {
            out.push_str("{\"kind\":\"ports\",\"critical_ports\":\"");
            let _ = p.critical_ports.write_to(out);
            out.push_str("\",\"load_on_critical\":");
            json_num(out, p.load_on_critical);
            out.push_str(",\"port_loads\":");
            json_port_loads(out, &p.port_loads);
            out.push('}');
        }
        Evidence::Precedence(p) => {
            out.push_str("{\"kind\":\"precedence\",\"critical_chain\":");
            json_chain(out, &p.critical_chain);
            out.push('}');
        }
    }
}

impl Explanation {
    /// Render the explanation as one structured JSON object: per-component
    /// bounds (with typed evidence where collected), the bottleneck set in
    /// tie-break order, and — hoisted to the top level for convenience —
    /// the critical-chain edges, the port-load map, and the
    /// per-instruction attributions. A wrapper over [`write_json`].
    ///
    /// [`write_json`]: Explanation::write_json
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write_json(&mut out);
        out
    }

    /// Append the [`to_json`] object to `out`, which the caller owns and
    /// may reuse across rows.
    ///
    /// [`to_json`]: Explanation::to_json
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"front_end\":\"");
        out.push_str(self.front_end.name());
        out.push_str("\",\"throughput\":");
        json_num(out, self.throughput);
        out.push_str(",\"bounds\":[");
        for (i, a) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"component\":\"");
            out.push_str(a.component.name());
            out.push_str("\",\"bound\":");
            json_num(out, a.bound);
            if !matches!(a.evidence, Evidence::None) {
                out.push_str(",\"evidence\":");
                json_evidence(out, &a.evidence);
            }
            out.push('}');
        }
        out.push_str("],\"bottlenecks\":[");
        for (i, b) in self.bottlenecks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(b.name());
            out.push('"');
        }
        out.push(']');
        if let Some(p) = self.ports() {
            out.push_str(",\"critical_ports\":\"");
            let _ = p.critical_ports.write_to(out);
            out.push_str("\",\"load_on_critical\":");
            json_num(out, p.load_on_critical);
            out.push_str(",\"port_loads\":");
            json_port_loads(out, &p.port_loads);
        }
        let chain = self.critical_chain();
        if !chain.is_empty() {
            out.push_str(",\"critical_chain\":");
            json_chain(out, chain);
        }
        if !self.attributions.is_empty() {
            out.push_str(",\"attributions\":[");
            let mut first = true;
            for a in &self.attributions {
                if a.is_zero() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                field_uint(out, "{\"inst\":", a.inst);
                out.push_str(",\"critical_port_uops\":");
                json_num(out, a.critical_port_uops);
                out.push_str(",\"chain_latency\":");
                json_num(out, a.chain_latency);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Render a compact human-readable summary (one fact per line). Used
    /// by the CLI for `--explain` in batch mode, where the annotated block
    /// is not available for disassembly; the bottleneck components are
    /// marked with `<-`.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "front end: {}", self.front_end);
        if let Some(b) = self.primary_bottleneck() {
            let _ = write!(out, "; bottleneck: {b}");
        }
        out.push('\n');
        out.push_str("bounds:");
        for a in &self.components {
            let marker = if self.bottlenecks.contains(&a.component) {
                "<-"
            } else {
                ""
            };
            let _ = write!(out, " {}={:.2}{marker}", a.component.name(), a.bound);
        }
        out.push('\n');
        if let Some(p) = self.ports() {
            if !p.critical_ports.is_empty() {
                let _ = write!(
                    out,
                    "ports: {:.2} uops on {}",
                    p.load_on_critical, p.critical_ports
                );
                if !p.port_loads.is_empty() {
                    out.push_str(" [");
                    for (i, l) in p.port_loads.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{}={:.2}", l.ports, l.uops);
                    }
                    out.push(']');
                }
                out.push('\n');
            }
        }
        let chain = self.critical_chain();
        if !chain.is_empty() {
            out.push_str("chain:");
            for s in chain {
                let carry = if s.loop_carried { "/carry" } else { "" };
                let _ = write!(out, " [{}]@{}+{:.2}{carry}", s.value, s.inst, s.latency);
            }
            out.push('\n');
        }
        let contributors: Vec<_> = self.attributions.iter().filter(|a| !a.is_zero()).collect();
        if !contributors.is_empty() {
            out.push_str("attribution:");
            for a in contributors {
                let _ = write!(out, " #{}", a.inst);
                if a.critical_port_uops > 0.0 {
                    let _ = write!(out, " ports={:.2}", a.critical_port_uops);
                }
                if a.chain_latency > 0.0 {
                    let _ = write!(out, " chain={:.2}", a.chain_latency);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::{ComponentAnalysis, PortsEvidence, PrecedenceEvidence, ValueRef};
    use crate::model::{Component, FrontEndPath, Mode};
    use facile_uarch::PortMask;
    use facile_x86::reg::names::*;

    fn sample() -> Explanation {
        Explanation::compose(
            Mode::Unrolled,
            FrontEndPath::Mite,
            vec![
                ComponentAnalysis {
                    component: Component::Ports,
                    bound: 1.0,
                    evidence: Evidence::Ports(PortsEvidence {
                        critical_ports: PortMask::of(&[1]),
                        load_on_critical: 1.0,
                        port_loads: vec![PortLoad {
                            ports: PortMask::of(&[1]),
                            uops: 1.0,
                        }],
                    }),
                },
                ComponentAnalysis {
                    component: Component::Precedence,
                    bound: 3.0,
                    evidence: Evidence::Precedence(PrecedenceEvidence {
                        critical_chain: vec![ChainStep {
                            inst: 1,
                            value: ValueRef::Reg(RDX),
                            latency: 3.0,
                            loop_carried: true,
                        }],
                    }),
                },
            ],
            vec![crate::InstAttribution {
                inst: 1,
                critical_port_uops: 1.0,
                chain_latency: 3.0,
            }],
        )
    }

    #[test]
    fn json_contains_structured_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"front_end\":\"MITE\""), "{j}");
        assert!(
            j.contains("\"component\":\"Precedence\",\"bound\":3"),
            "{j}"
        );
        assert!(j.contains("\"critical_chain\":[{\"inst\":1"), "{j}");
        assert!(j.contains("\"loop_carried\":true"), "{j}");
        assert!(j.contains("\"port_loads\":[{\"ports\":\"p1\""), "{j}");
        assert!(j.contains("\"bottlenecks\":[\"Precedence\"]"), "{j}");
        assert!(j.contains("\"attributions\":[{\"inst\":1"), "{j}");
    }

    #[test]
    fn text_mentions_bottleneck_and_chain() {
        let t = sample().to_text();
        assert!(t.contains("bottleneck: Precedence"), "{t}");
        assert!(t.contains("Precedence=3.00<-"), "{t}");
        assert!(t.contains("[rdx]@1+3.00/carry"), "{t}");
        assert!(t.contains("ports: 1.00 uops on p1"), "{t}");
    }
}
